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

from .meta import q_test_p_value
from .replicability import ReplicabilityReport

__all__ = ["AnnotatedForest", "ForestRow", "format_number", "format_r_value", "render_forest"]

_RATIO_MEASURES = ("odds_ratio", "risk_ratio")
_MEASURE_LABEL = {"raw": "effect", "odds_ratio": "OR", "risk_ratio": "RR"}


def format_number(x: float) -> str:
    """Four significant digits, the rounding used throughout rendered reports."""
    return f"{x:.4g}"


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
    """Study rows, the pooled summary, and the heterogeneity/replicability footer."""

    rows: tuple[ForestRow, ...]
    pooled: ForestRow
    model: str
    q: float
    i_squared: float
    replicability: ReplicabilityReport
    measure: str = "raw"

    def __post_init__(self) -> None:
        if len(self.rows) < 2:
            raise ValueError("a forest needs at least two studies; replicability is undefined below two")
        if self.measure not in _MEASURE_LABEL:
            raise ValueError(f"measure must be one of {tuple(_MEASURE_LABEL)}, got {self.measure!r}")
        total = sum(row.weight for row in self.rows)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"study weights must sum to 1, got {total!r}")

    @property
    def q_p_value(self) -> float:
        """The Q-test p-value of ``q`` on the forest's studies."""
        return q_test_p_value(self.q, len(self.rows))


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
        f"confidence={format_number(rep.confidence * 100)}%, "
        f"consistency={rep.consistency}"
    )


def _heterogeneity_line(forest: AnnotatedForest) -> str:
    return (
        f"heterogeneity: Q={format_number(forest.q)} "
        f"(df={len(forest.rows) - 1}, p={format_number(forest.q_p_value)}), "
        f"I^2={format_number(forest.i_squared * 100)}%"
    )


def _render_text(forest: AnnotatedForest) -> str:
    label_width = max(
        len("study"), len(forest.pooled.label), max(len(row.label) for row in forest.rows)
    )
    unit = _MEASURE_LABEL[forest.measure]
    lines = [f"{'study':<{label_width}}  {unit:>10}  {'95% CI':>22}  {'weight':>7}"]
    for row in forest.rows:
        lines.append(_text_row(forest, row, label_width, f"{row.weight * 100:6.2f}%"))
    lines.append(_text_row(forest, forest.pooled, label_width, f"{100.0:6.2f}%"))
    lines.append(_heterogeneity_line(forest))
    lines.append(_replicability_line(forest))
    return "\n".join(lines) + "\n"


def _text_row(forest: AnnotatedForest, row: ForestRow, label_width: int, weight_text: str) -> str:
    lo, hi = (_display(forest, row.ci[0]), _display(forest, row.ci[1]))
    estimate = _display(forest, row.estimate)
    ci_text = f"[{format_number(lo)}, {format_number(hi)}]"
    return f"{row.label:<{label_width}}  {format_number(estimate):>10}  {ci_text:>22}  {weight_text:>7}"


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
    values = [v for row in forest.rows for v in (row.ci[0], row.ci[1])]
    values += [forest.pooled.ci[0], forest.pooled.ci[1]]
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
        f"{_escape(forest.pooled.label)} forest plot ({_MEASURE_LABEL[forest.measure]})</text>",
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
            f"{format_number(_display(forest, row.estimate))} "
            f"[{format_number(_display(forest, row.ci[0]))}, "
            f"{format_number(_display(forest, row.ci[1]))}]  "
            f"{row.weight * 100:.1f}%</text>"
        )

    diamond_y = pooled_y
    cx, lo_x, hi_x = (x_of(forest.pooled.estimate), x_of(forest.pooled.ci[0]), x_of(forest.pooled.ci[1]))
    parts.append(f'<text x="10" y="{diamond_y + 4}">{_escape(forest.pooled.label)}</text>')
    parts.append(
        f'<polygon points="{lo_x:.2f},{diamond_y} {cx:.2f},{diamond_y - 7} '
        f'{hi_x:.2f},{diamond_y} {cx:.2f},{diamond_y + 7}" fill="#1a1a1a"/>'
    )
    parts.append(
        f'<text x="{_PLOT_RIGHT + 14}" y="{diamond_y + 4}">'
        f"{format_number(_display(forest, forest.pooled.estimate))} "
        f"[{format_number(_display(forest, forest.pooled.ci[0]))}, "
        f"{format_number(_display(forest, forest.pooled.ci[1]))}]</text>"
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
