"""Annotated forest plots, as fixed-width text or standalone SVG.

The annotation footer always carries the full replicability line (r-value,
both directional lower bounds, confidence level, and the consistency class),
never a subset of it. Ratio-scale analyses are computed on the log scale and
displayed exponentiated.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .meta import MetaAnalysisResult, StudySummary, _forest_weights, _z_crit, q_test_p_value
from .replicability import ReplicabilityReport

__all__ = ["AnnotatedForest", "ForestRow", "format_number", "format_r_value", "render_forest"]

_RATIO_MEASURES = ("odds_ratio", "risk_ratio")
_MEASURE_LABEL = {"raw": "effect", "odds_ratio": "OR", "risk_ratio": "RR"}


def format_number(x: float) -> str:
    """Four significant digits, the rounding used throughout rendered reports."""
    return f"{x:.4g}"


def _format_level(alpha: float) -> str:
    """The confidence level 100 (1 - alpha), in percent, as ``format_number`` prints it.

    Where that reads 100, the level is 100 less 100 alpha rounded to one
    digit, taken from alpha, since 1 - alpha rounds to 1.0 below 2^-53.
    """
    text = format_number(100.0 * (1.0 - alpha))
    if text != "100":
        return text
    digit, exponent = f"{100.0 * alpha:.0e}".split("e")
    digits = str(10 ** (2 - int(exponent)) - int(digit))
    return f"{digits[:2]}.{digits[2:]}"


def format_r_value(r: float) -> str:
    """r-values below 1e-4 are reported as a bound rather than a tiny numeral."""
    return "<0.0001" if r < 1e-4 else format_number(r)


@dataclass(frozen=True)
class ForestRow:
    label: str
    estimate: float
    ci: tuple[float, float]
    weight: float


@dataclass(frozen=True)
class AnnotatedForest:
    """The forest of one analysis: its studies, their fit and the replicability report.

    The study rows, the pooled row and the Q-test p-value are read from these,
    so the plot cannot disagree with the analysis it draws. Study intervals are
    at the report's confidence level, and each study's weight is its share of
    the fit's inverse-variance total.
    """

    studies: Sequence[StudySummary]
    fit: MetaAnalysisResult
    replicability: ReplicabilityReport
    measure: str = "raw"

    def __post_init__(self) -> None:
        if len(self.studies) < 2:
            raise ValueError("a forest needs at least two studies; replicability is undefined below two")
        if self.measure not in _MEASURE_LABEL:
            raise ValueError(f"measure must be one of {tuple(_MEASURE_LABEL)}, got {self.measure!r}")

    @cached_property
    def rows(self) -> tuple[ForestRow, ...]:
        z = _z_crit(self.replicability.alpha)
        shares = _forest_weights(self.studies, self.fit.tau_squared)
        return tuple(
            ForestRow(s.label, s.theta_hat, (s.theta_hat - z * s.se, s.theta_hat + z * s.se), share)
            for s, share in zip(self.studies, shares)
        )

    @property
    def pooled(self) -> ForestRow:
        return ForestRow(f"pooled ({self.fit.model})", self.fit.pooled, self.fit.ci, 1.0)

    @property
    def q_p_value(self) -> float:
        """The Q-test p-value of the fit's Q on the forest's studies."""
        return q_test_p_value(self.fit.q, len(self.studies))


def render_forest(forest: AnnotatedForest, format: str = "text") -> str:
    """Render the forest as a fixed-width table or an SVG 1.1 document."""
    if format == "text":
        return _render_text(forest)
    if format == "svg":
        return _render_svg(forest)
    raise ValueError(f"format must be 'text' or 'svg', got {format!r}")


def _display(forest: AnnotatedForest, value: float) -> float:
    return math.exp(value) if forest.measure in _RATIO_MEASURES else value


def _replicability_line(forest: AnnotatedForest) -> str:
    rep = forest.replicability
    return (
        f"replicability: r-value={format_r_value(rep.r_value)}, "
        f"u_max(left)={rep.u_max_left}, u_max(right)={rep.u_max_right}, "
        f"confidence={_format_level(rep.alpha)}%, "
        f"consistency={rep.consistency}"
    )


def _heterogeneity_line(forest: AnnotatedForest) -> str:
    return (
        f"heterogeneity: Q={format_number(forest.fit.q)} "
        f"(df={len(forest.studies) - 1}, p={format_number(forest.q_p_value)}), "
        f"I^2={format_number(forest.fit.i_squared * 100)}%"
    )


def _render_text(forest: AnnotatedForest) -> str:
    pooled = forest.pooled
    label_width = max(len("study"), len(pooled.label), max(len(row.label) for row in forest.rows))
    unit = _MEASURE_LABEL[forest.measure]
    ci_header = f"{_format_level(forest.replicability.alpha)}% CI"
    lines = [f"{'study':<{label_width}}  {unit:>10}  {ci_header:>22}  {'weight':>7}"]
    for row in forest.rows:
        lines.append(_text_row(forest, row, label_width, f"{row.weight * 100:6.2f}%"))
    lines.append(_text_row(forest, pooled, label_width, f"{100.0:6.2f}%"))
    lines.append(_heterogeneity_line(forest))
    lines.append(_replicability_line(forest))
    return "\n".join(lines) + "\n"


def _interval_text(forest: AnnotatedForest, row: ForestRow) -> str:
    """The row's interval as ``[lo, hi]`` on the display scale."""
    lo, hi = (format_number(_display(forest, bound)) for bound in row.ci)
    return f"[{lo}, {hi}]"


def _text_row(forest: AnnotatedForest, row: ForestRow, label_width: int, weight_text: str) -> str:
    estimate = format_number(_display(forest, row.estimate))
    ci_text = _interval_text(forest, row)
    return f"{row.label:<{label_width}}  {estimate:>10}  {ci_text:>22}  {weight_text:>7}"


# SVG geometry: fixed layout so output is byte-stable across runs.
_SVG_WIDTH = 840
_ROW_HEIGHT = 24
_PLOT_LEFT = 270
_PLOT_RIGHT = 620
_TOP = 40
_RATIO_TICKS = (0.25, 0.5, 1.0, 2.0, 4.0)


def _raw_ticks(lo: float, hi: float) -> list[float]:
    """A small set of round tick positions covering [lo, hi]."""
    span = hi - lo
    if span <= 0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-12:
        ticks.append(0.0 if abs(value) < 1e-12 else value)
        value += step
    return ticks


def _escape(text: str) -> str:
    # &, < and >, as xml.sax.saxutils.escape does, without importing urllib.
    return html.escape(text, quote=False)


def _render_svg(forest: AnnotatedForest) -> str:
    ratio = forest.measure in _RATIO_MEASURES
    pooled = forest.pooled
    drawn = (*forest.rows, pooled)
    for row in drawn:
        if not (math.isfinite(row.ci[0]) and math.isfinite(row.ci[1])):
            raise ValueError(
                f"the SVG axis cannot place the non-finite interval [{row.ci[0]}, {row.ci[1]}] "
                f"of {row.label!r}"
            )
    values = [v for row in drawn for v in row.ci]
    null_value = 0.0
    lo, hi = min(values + [null_value]), max(values + [null_value])
    if ratio:
        # Ticks are fixed ratio landmarks; widen the range to include them.
        lo = min(lo, math.log(_RATIO_TICKS[0]))
        hi = max(hi, math.log(_RATIO_TICKS[-1]))
        ticks = [(math.log(t), ("%g" % t)) for t in _RATIO_TICKS]
    else:
        pad = 0.05 * (hi - lo if hi > lo else 1.0)
        lo, hi = lo - pad, hi + pad
        ticks = [(t, format_number(t)) for t in _raw_ticks(lo, hi)]

    span = hi - lo if hi > lo else 1.0

    def x_of(value: float) -> float:
        return _PLOT_LEFT + (value - lo) / span * (_PLOT_RIGHT - _PLOT_LEFT)

    n = len(forest.rows)
    pooled_y = _TOP + (n + 1) * _ROW_HEIGHT
    axis_y = pooled_y + _ROW_HEIGHT
    height = axis_y + 70
    max_weight = max(row.weight for row in forest.rows)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_WIDTH}" height="{height}" font-family="monospace" font-size="12">',
        f'<text x="10" y="{_TOP - 16}" font-weight="bold">'
        f"{_escape(pooled.label)} forest plot ({_MEASURE_LABEL[forest.measure]})</text>",
        f'<line x1="{x_of(null_value):.2f}" y1="{_TOP - 8}" x2="{x_of(null_value):.2f}" '
        f'y2="{axis_y}" stroke="#888888" stroke-dasharray="4,3"/>',
    ]
    for index, row in enumerate(forest.rows):
        y = _TOP + index * _ROW_HEIGHT
        half = 3.0 + 5.0 * math.sqrt(row.weight / max_weight)
        parts.append(f'<text x="10" y="{y + 4}">{_escape(row.label)}</text>')
        parts.append(
            f'<line x1="{x_of(row.ci[0]):.2f}" y1="{y}" x2="{x_of(row.ci[1]):.2f}" y2="{y}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<rect x="{x_of(row.estimate) - half:.2f}" y="{y - half:.2f}" '
            f'width="{2 * half:.2f}" height="{2 * half:.2f}" fill="#2b5a87"/>'
        )
        parts.append(
            f'<text x="{_PLOT_RIGHT + 14}" y="{y + 4}">'
            f"{format_number(_display(forest, row.estimate))} {_interval_text(forest, row)}  "
            f"{row.weight * 100:.1f}%</text>"
        )

    diamond_y = pooled_y
    cx, lo_x, hi_x = (x_of(pooled.estimate), x_of(pooled.ci[0]), x_of(pooled.ci[1]))
    parts.append(f'<text x="10" y="{diamond_y + 4}">{_escape(pooled.label)}</text>')
    parts.append(
        f'<polygon points="{lo_x:.2f},{diamond_y} {cx:.2f},{diamond_y - 7} '
        f'{hi_x:.2f},{diamond_y} {cx:.2f},{diamond_y + 7}" fill="#1a1a1a"/>'
    )
    parts.append(
        f'<text x="{_PLOT_RIGHT + 14}" y="{diamond_y + 4}">'
        f"{format_number(_display(forest, pooled.estimate))} {_interval_text(forest, pooled)}</text>"
    )

    parts.append(
        f'<line x1="{_PLOT_LEFT}" y1="{axis_y}" x2="{_PLOT_RIGHT}" y2="{axis_y}" stroke="black"/>'
    )
    for value, label in ticks:
        if value < lo - 1e-12 or value > hi + 1e-12:
            continue
        x = x_of(value)
        parts.append(f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" y2="{axis_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{axis_y + 18}" text-anchor="middle">{label}</text>')

    parts.append(f'<text x="10" y="{axis_y + 38}">{_escape(_heterogeneity_line(forest))}</text>')
    parts.append(f'<text x="10" y="{axis_y + 54}">{_escape(_replicability_line(forest))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
