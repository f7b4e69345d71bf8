"""Meta-analysis with replicability inference.

Alongside the usual fixed-effect or random-effects pooling, this package
quantifies whether the evidence is replicated across studies: the r-value (the
p-value of "at least two studies have an effect in the same direction"),
confidence lower bounds on the number of studies with positive and with
negative effects, and a consistency classification of those bounds. A Monte
Carlo harness reproduces the power behaviour of the tests, and a CLI renders
annotated forest plots and abstract-ready report sentences.
"""

from .forest import AnnotatedForest, ForestRow, render_forest
from .meta import (
    MetaAnalysisResult,
    StudySummary,
    binary_to_log_effect,
    fixed_effect_meta,
    heterogeneity,
    leave_one_out,
    random_effects_meta,
)
from .replicability import (
    PartialConjunctionResult,
    ReplicabilityReport,
    classify_consistency,
    conditional_p_transform,
    confidence_bounds,
    delta_bound,
    fe_r_value,
    partial_conjunction_p,
    r_value,
    truncated_product_p,
)
from .report import AnalysisRequest, analyze, parse_studies, summary_sentence
from .simulation import (
    FixedEffectsScenario,
    PowerCurvePoint,
    RandomEffectsScenario,
    calibrate_tau,
    inconsistency_probability,
    simulate_fixed,
    simulate_random,
    truncation_comparison,
)
from .statkernels import PValuePair, binomial_pmf, normal_cdf, one_sided_p

__version__ = "0.1.0"

__all__ = [
    "AnalysisRequest",
    "AnnotatedForest",
    "FixedEffectsScenario",
    "ForestRow",
    "MetaAnalysisResult",
    "PValuePair",
    "PartialConjunctionResult",
    "PowerCurvePoint",
    "RandomEffectsScenario",
    "ReplicabilityReport",
    "StudySummary",
    "analyze",
    "binary_to_log_effect",
    "binomial_pmf",
    "calibrate_tau",
    "classify_consistency",
    "conditional_p_transform",
    "confidence_bounds",
    "delta_bound",
    "fe_r_value",
    "fixed_effect_meta",
    "heterogeneity",
    "inconsistency_probability",
    "leave_one_out",
    "normal_cdf",
    "one_sided_p",
    "parse_studies",
    "partial_conjunction_p",
    "r_value",
    "random_effects_meta",
    "render_forest",
    "simulate_fixed",
    "simulate_random",
    "summary_sentence",
    "truncated_product_p",
    "truncation_comparison",
]
