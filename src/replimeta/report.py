"""Study-file ingestion, the combined analysis pipeline, and report sentences.

The pipeline runs the chosen meta-analysis model, the u=2 replicability
r-value, the directional confidence lower bounds, and the consistency
classification, and assembles an annotated forest. Sentence templates follow
the reporting style of systematic-review abstracts.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Sequence, TextIO

from .forest import AnnotatedForest, ForestRow, format_number, format_r_value
from .meta import (
    MetaAnalysisResult,
    _OVERFLOW_MESSAGE,
    StudySummary,
    _check_alpha,
    _forest_weights,
    _overflow_index,
    _z_crit,
    binary_to_log_effect,
    fixed_effect_meta,
    random_effects_meta,
)
from .replicability import (
    ReplicabilityReport,
    _TwoSidedProfile,
    _check_t,
    conditional_p_transform,
)
from .statkernels import one_sided_p

__all__ = [
    "AnalysisRequest",
    "StudyFileError",
    "analyze",
    "directional_pvalues",
    "parse_studies",
    "partial_conjunction_summary",
    "summary_sentence",
]

_MEASURES = ("raw", "odds_ratio", "risk_ratio")


class StudyFileError(ValueError):
    """A study file failed validation; the message names the offending row."""


@dataclass(frozen=True)
class AnalysisRequest:
    """Everything needed for one combined meta-analysis + replicability run.

    Every test and interval is at level ``alpha``; ``t`` is the truncation
    threshold. ``conditional_threshold``, when set, restricts each direction's
    inference to studies whose one-sided p-value is at or below the threshold
    and rescales those p-values, guarding against publication bias.
    """

    studies: tuple[StudySummary, ...]
    model: str = "fixed"
    alpha: float = 0.05
    t: float = 0.05
    effect_measure: str = "raw"
    conditional_threshold: float | None = None

    def __post_init__(self) -> None:
        _check_t(self.t)
        _check_alpha(self.alpha)
        if len(self.studies) < 2:
            raise ValueError("replicability analysis requires at least two studies")
        if self.model not in ("fixed", "random", "auto"):
            raise ValueError(f"model must be 'fixed', 'random' or 'auto', got {self.model!r}")
        if self.effect_measure not in _MEASURES:
            raise ValueError(f"effect_measure must be one of {_MEASURES}, got {self.effect_measure!r}")
        if self.conditional_threshold is not None and not 0.0 < self.conditional_threshold < 1.0:
            raise ValueError("conditional_threshold must be in (0, 1)")

    @cached_property
    def profile(self) -> _TwoSidedProfile:
        """The directional curves of ``directional_pvalues`` at t, each side at alpha / 2.

        Built once per request; ``analyze``, ``partial_conjunction_summary``
        and the CLI tables all read it.
        """
        return _TwoSidedProfile(*directional_pvalues(self), self.t, self.alpha)


def parse_studies(source: str | TextIO, measure: str = "raw") -> list[StudySummary]:
    """Read studies from comma-separated text with a header row.

    Two layouts are accepted: ``label,estimate,se`` for effects already on the
    analysis scale, and ``label,events_t,total_t,events_c,total_c`` for binary
    outcomes, which are converted to the requested log ratio measure. Errors
    name the offending physical row (the header is row 1).
    """
    if measure not in _MEASURES:
        raise StudyFileError(f"measure must be one of {_MEASURES}, got {measure!r}")
    if isinstance(source, str):
        # utf-8-sig drops the byte-order mark that Excel writes.
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            rows = list(csv.reader(handle))
    else:
        rows = list(csv.reader(source))
    rows = [row for row in rows if any(cell.strip() for cell in row)]
    if not rows:
        raise StudyFileError("study file is empty")

    header = [cell.strip().lower() for cell in rows[0]]
    if header[:3] == ["label", "estimate", "se"] and len(header) == 3:
        binary = False
    elif header == ["label", "events_t", "total_t", "events_c", "total_c"]:
        binary = True
        if measure == "raw":
            raise StudyFileError(
                "binary count files need a ratio measure (odds_ratio or risk_ratio), not 'raw'"
            )
    else:
        raise StudyFileError(
            "header must be 'label,estimate,se' or 'label,events_t,total_t,events_c,total_c', "
            f"got {','.join(header)!r}"
        )

    studies: list[StudySummary] = []
    row_numbers: list[int] = []
    for row_number, row in enumerate(rows[1:], start=2):
        cells = [cell.strip() for cell in row]
        if len(cells) != len(header):
            raise StudyFileError(f"row {row_number}: expected {len(header)} columns, got {len(cells)}")
        label = cells[0]
        try:
            numbers = [float(cell) for cell in cells[1:]]
        except ValueError:
            raise StudyFileError(f"row {row_number}: non-numeric value in {cells[1:]!r}") from None
        try:
            if binary:
                counts = tuple(int(x) for x in numbers)
                if any(c != raw for c, raw in zip(counts, numbers)):
                    raise ValueError("counts must be integers")
                theta, se = binary_to_log_effect(counts, measure)
                studies.append(StudySummary(label, theta, se))
            else:
                estimate, se = numbers
                studies.append(StudySummary(label, estimate, se))
        except ValueError as exc:
            raise StudyFileError(f"row {row_number}: {exc}") from None
        row_numbers.append(row_number)
    if not studies:
        raise StudyFileError("study file has a header but no data rows")
    overflow = _overflow_index(studies)
    if overflow is not None:
        raise StudyFileError(f"row {row_numbers[overflow]}: {_OVERFLOW_MESSAGE}")
    return studies


def directional_pvalues(request: AnalysisRequest) -> tuple[list[float], list[float]]:
    """Left and right one-sided p-value lists for the request's studies.

    With a conditional threshold the two lists are filtered and rescaled
    independently, so they may end up shorter than the study list and of
    different lengths from each other.
    """
    pairs = [one_sided_p(s.theta_hat, s.se) for s in request.studies]
    left = [pair.left for pair in pairs]
    right = [pair.right for pair in pairs]
    if request.conditional_threshold is not None:
        left = conditional_p_transform(left, request.conditional_threshold)
        right = conditional_p_transform(right, request.conditional_threshold)
    return left, right


def partial_conjunction_summary(request: AnalysisRequest, u: int) -> dict:
    """Directional and combined p-values at level u for the request's studies.

    Read from the request's profile, so the numbers are those of analyze.
    """
    if not 1 <= u <= len(request.studies):
        raise ValueError(f"u must be in [1, {len(request.studies)}], got {u}")
    return asdict(request.profile.result(u))


def analyze(
    request: AnalysisRequest,
) -> tuple[MetaAnalysisResult, ReplicabilityReport, AnnotatedForest]:
    """Run the meta-analysis and the replicability add-ons for one request.

    ``model='auto'`` picks the random-effects model when the estimated
    heterogeneity fraction is positive and the fixed-effect model otherwise;
    the resulting model is recorded on the returned result.
    """
    studies = list(request.studies)
    alpha = request.alpha

    model = request.model
    fit = fixed_effect_meta if model == "fixed" else random_effects_meta
    meta_result = fit(studies, alpha)
    if model == "auto" and meta_result.i_squared == 0.0:
        meta_result = fixed_effect_meta(studies, alpha)

    report = ReplicabilityReport(*request.profile.bounds(), request.profile.result(2).r, alpha=alpha)
    forest = _build_forest(studies, meta_result, report, request.effect_measure)
    return meta_result, report, forest


def _build_forest(
    studies: Sequence[StudySummary],
    meta_result: MetaAnalysisResult,
    report: ReplicabilityReport,
    measure: str,
) -> AnnotatedForest:
    z_crit = _z_crit(report.alpha)
    rows = tuple(
        ForestRow(
            label=s.label,
            estimate=s.theta_hat,
            ci=(s.theta_hat - z_crit * s.se, s.theta_hat + z_crit * s.se),
            weight=share,
        )
        for s, share in zip(studies, _forest_weights(studies, meta_result.tau_squared))
    )
    pooled = ForestRow(
        label=f"pooled ({meta_result.model})",
        estimate=meta_result.pooled,
        ci=meta_result.ci,
        weight=1.0,
    )
    return AnnotatedForest(
        rows=rows,
        pooled=pooled,
        model=meta_result.model,
        q=meta_result.q,
        i_squared=meta_result.i_squared,
        replicability=report,
        measure=measure,
    )


# Sentence templates; ratio measures speak of increased/decreased effects,
# raw effects of positive/negative ones.
_TEMPLATES: dict[str, str] = {
    "replicable": (
        "The evidence towards {direction_article} {direction} effect was replicable "
        "(r-value = {r}). Moreover, with {confidence}% confidence, at least "
        "{count} studies had {direction_article} {direction} effect{tail}."
    ),
    "replicable_tail_consistent": ", with no indication of inconsistency",
    "inconsistent": (
        "There is inconsistent evidence for the direction of effect: "
        "{increase_direction} effect in at least {u_right} studies and "
        "{decrease_direction} effect in at least {u_left} studies "
        "(with {confidence}% confidence). The pooled estimate may not be "
        "clinically meaningful without an explanation of the disagreement."
    ),
    "insufficient": (
        "We cannot rule out the possibility that this result is critically based "
        "on a single study (r-value = {r})."
    ),
}

_DIRECTION_WORDS = {
    "raw": {"up": "positive", "down": "negative", "article_up": "a", "article_down": "a"},
    "odds_ratio": {"up": "increased", "down": "decreased", "article_up": "an", "article_down": "a"},
    "risk_ratio": {"up": "increased", "down": "decreased", "article_up": "an", "article_down": "a"},
}


def summary_sentence(report: ReplicabilityReport, measure: str = "raw") -> str:
    """One abstract-ready sentence describing the replicability finding.

    Never claims replicability when the r-value exceeds the report's alpha,
    and never claims inconsistency unless both directional bounds are at
    least one.
    """
    words = _DIRECTION_WORDS[measure]
    confidence = format_number(report.confidence * 100)
    r_text = format_r_value(report.r_value)

    if report.consistency == "inconsistent":
        return _TEMPLATES["inconsistent"].format(
            increase_direction=f"{words['article_up']} {words['up']}",
            decrease_direction=f"{words['article_down']} {words['down']}",
            u_right=report.u_max_right,
            u_left=report.u_max_left,
            confidence=confidence,
        )
    if report.r_value <= report.alpha:
        right_leads = report.u_max_right >= report.u_max_left
        direction = words["up"] if right_leads else words["down"]
        article = words["article_up"] if right_leads else words["article_down"]
        count = max(report.u_max_right if right_leads else report.u_max_left, 2)
        consistent = report.consistency == "supports_consistency"
        tail = _TEMPLATES["replicable_tail_consistent"] if consistent else ""
        return _TEMPLATES["replicable"].format(
            direction=direction,
            direction_article=article,
            r=r_text,
            confidence=confidence,
            count=count,
            tail=tail,
        )
    return _TEMPLATES["insufficient"].format(r=r_text)
