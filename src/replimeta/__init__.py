"""Meta-analysis with replicability inference.

Alongside the usual fixed-effect or random-effects pooling, this package
quantifies whether the evidence is replicated across studies: the r-value (the
p-value of "at least two studies have an effect in the same direction"),
confidence lower bounds on the number of studies with positive and with
negative effects, and a consistency classification of those bounds. A Monte
Carlo harness reproduces the power behaviour of the tests, and a CLI renders
annotated forest plots and abstract-ready report sentences.

The names below load their submodule on first access (PEP 562), so that
``import replimeta`` and ``import replimeta.cli`` load no numpy: a CLI
process pays for numpy only in a command that computes.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "AnnotatedForest": "forest",
    "ForestRow": "forest",
    "render_forest": "forest",
    "MetaAnalysisResult": "meta",
    "StudySummary": "meta",
    "binary_to_log_effect": "meta",
    "fixed_effect_meta": "meta",
    "leave_one_out": "meta",
    "random_effects_meta": "meta",
    "PartialConjunctionResult": "replicability",
    "ReplicabilityReport": "replicability",
    "classify_consistency": "replicability",
    "conditional_p_transform": "replicability",
    "confidence_bounds": "replicability",
    "delta_bound": "replicability",
    "fe_r_value": "replicability",
    "partial_conjunction_p": "replicability",
    "r_value": "replicability",
    "truncated_product_p": "replicability",
    "AnalysisRequest": "report",
    "analyze": "report",
    "parse_studies": "report",
    "summary_sentence": "report",
    "FixedEffectsScenario": "simulation",
    "PowerCurvePoint": "simulation",
    "RandomEffectsScenario": "simulation",
    "calibrate_tau": "simulation",
    "inconsistency_probability": "simulation",
    "simulate_fixed": "simulation",
    "simulate_random": "simulation",
    "truncation_comparison": "simulation",
    "normal_cdf": "statkernels",
    "one_sided_p": "statkernels",
}
_SUBMODULES = frozenset(_EXPORTS.values())


def __getattr__(name: str):
    if name in _SUBMODULES:
        # Importing a submodule binds it in this module's globals.
        return _import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)


__all__ = sorted(_EXPORTS)
