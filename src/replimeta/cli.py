"""Command-line interface.

Subcommands: ``analyze`` (meta-analysis with the replicability report),
``simulate`` (power studies to CSV), ``bounds`` (the directional p-value table
over u), and ``loo`` (leave-one-out refits). Exit status is 0 on success, 1 on
any validation problem (including unknown flags), 2 on I/O errors.

The environment variable ``REPLIMETA_CONFIG_DIR`` names a directory searched
for scenario config files given by bare name; an explicit ``--seed`` always
overrides the seed from a config or preset default.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import replace

from . import __version__
from .forest import format_number, render_forest
from .meta import leave_one_out
from .replicability import delta_bound
from .report import (
    AnalysisRequest,
    StudyFileError,
    analyze,
    parse_studies,
    partial_conjunction_summary,
    summary_sentence,
)
from .simulation import (
    parse_scenario_config,
    preset,
    preset_names,
    run_points,
    write_power_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; here 2 is reserved for I/O.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="replimeta", description="Meta-analysis with replicability inference")
    parser.add_argument("--version", action="version", version=f"replimeta {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    studies = argparse.ArgumentParser(add_help=False)
    studies.add_argument("--input", required=True, help="CSV study file")
    studies.add_argument("--alpha", type=float, default=0.05)
    studies.add_argument("--measure", choices=("raw", "odds_ratio", "risk_ratio"), default="raw")
    studies.add_argument("--output", default=None, help="output file (default: stdout)")
    truncation = argparse.ArgumentParser(add_help=False)
    truncation.add_argument("--truncation", type=float, default=0.05, metavar="T",
                            help="p-value truncation threshold for the combination test")

    analyze_p = sub.add_parser("analyze", parents=[studies, truncation],
                               help="meta-analysis plus replicability report")
    analyze_p.add_argument("--model", choices=("fixed", "random", "auto"), default="fixed")
    analyze_p.add_argument("--u", type=int, default=2,
                           help="replicability level to report alongside the default u=2")
    analyze_p.add_argument("--delta-bounds", action="store_true",
                           help="also bound the effect magnitude established in at least two studies")
    analyze_p.add_argument("--conditional-threshold", type=float, default=None, metavar="P",
                           help="publication-bias guard: keep only p-values at or below P, rescaled")
    analyze_p.add_argument("--format", choices=("text", "json", "svg"), default="text")
    analyze_p.set_defaults(func=_cmd_analyze)

    simulate_p = sub.add_parser("simulate", help="Monte Carlo power study, CSV output")
    simulate_p.add_argument("--scenario", default=None,
                            help=f"preset name ({', '.join(preset_names())})")
    simulate_p.add_argument("--config", default=None, help="scenario config file (key = value lines)")
    simulate_p.add_argument("--replications", type=int, default=None)
    simulate_p.add_argument("--seed", type=int, default=None)
    simulate_p.add_argument("--t", type=float, default=None, help="truncation threshold override")
    simulate_p.add_argument("--out", default=None, help="CSV file (default: stdout)")
    simulate_p.set_defaults(func=_cmd_simulate)

    bounds_p = sub.add_parser("bounds", parents=[studies, truncation],
                              help="directional p-values and bounds for u = 1..n")
    bounds_p.add_argument("--format", choices=("text", "json"), default="text")
    bounds_p.set_defaults(func=_cmd_bounds)

    loo_p = sub.add_parser("loo", parents=[studies], help="leave-one-out sensitivity table")
    loo_p.add_argument("--model", choices=("fixed", "random"), default="fixed")
    loo_p.add_argument("--format", choices=("text", "json"), default="text")
    loo_p.set_defaults(func=_cmd_loo)

    return parser


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _details_block(pairs: list[tuple[str, object]]) -> str:
    width = max(len(key) for key, _ in pairs)
    lines = []
    for key, value in pairs:
        shown = f"{value:.12g}" if isinstance(value, float) else str(value)
        lines.append(f"{key:<{width}} = {shown}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.delta_bounds and args.conditional_threshold is not None:
        raise ValueError(
            "--delta-bounds cannot be combined with --conditional-threshold: the conditional "
            "transform assumes selection at zero shift, and the delta bounds test shifted nulls"
        )
    studies = parse_studies(args.input, args.measure)
    request = AnalysisRequest(
        studies=tuple(studies),
        model=args.model,
        alpha=args.alpha,
        t=args.truncation,
        effect_measure=args.measure,
        conditional_threshold=args.conditional_threshold,
    )
    meta_result, report, forest = analyze(request)
    extra_pc = partial_conjunction_summary(request, args.u)

    deltas = None
    if args.delta_bounds:
        deltas = {side: delta_bound(studies, 2, args.alpha, side, args.truncation)
                  for side in ("upper_positive", "lower_negative")}

    provenance = {
        "package": "replimeta",
        "version": __version__,
        "model_requested": args.model,
        "model_used": meta_result.model,
        "alpha": args.alpha,
        "truncation_t": args.truncation,
        "effect_measure": args.measure,
        "conditional_threshold": args.conditional_threshold,
        "input": args.input,
    }

    if args.format == "svg":
        _write_output(render_forest(forest, "svg"), args.output)
        return EXIT_OK

    # The JSON meta and replicability blocks and the text details, in order.
    meta_fields: list[tuple[str, object]] = [
        ("model", meta_result.model),
        ("pooled", meta_result.pooled),
        ("se", meta_result.se),
        ("ci_low", meta_result.ci[0]),
        ("ci_high", meta_result.ci[1]),
        ("p_two_sided", meta_result.p_two_sided),
        ("q", meta_result.q),
        ("i_squared", meta_result.i_squared),
        ("tau_squared", meta_result.tau_squared),
    ]
    replicability_fields: list[tuple[str, object]] = [
        ("r_value", report.r_value),
        ("u_max_left", report.u_max_left),
        ("u_max_right", report.u_max_right),
        ("consistency", report.consistency),
        ("confidence", report.confidence),
    ]

    if args.format == "json":
        payload = {
            "meta": dict(meta_fields),
            "replicability": {
                **dict(replicability_fields),
                "partial_conjunction": extra_pc,
                "delta_bounds": deltas,
            },
            "forest": {
                "rows": [
                    {
                        "label": row.label,
                        "estimate": row.estimate,
                        "ci_low": row.ci[0],
                        "ci_high": row.ci[1],
                        "weight": row.weight,
                    }
                    for row in forest.rows
                ],
                "pooled": {
                    "label": forest.pooled.label,
                    "estimate": forest.pooled.estimate,
                    "ci_low": forest.pooled.ci[0],
                    "ci_high": forest.pooled.ci[1],
                },
                "q_p_value": forest.q_p_value,
                "measure": forest.measure,
            },
            "provenance": provenance,
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
        return EXIT_OK

    sections = [
        render_forest(forest, "text"),
        summary_sentence(report, args.measure) + "\n",
    ]
    details = meta_fields + replicability_fields + [
        (f"r_left(u={args.u})", extra_pc["r_left"]),
        (f"r_right(u={args.u})", extra_pc["r_right"]),
        (f"r(u={args.u})", extra_pc["r"]),
    ]
    if deltas is not None:
        details += [(f"delta_{side}", "none" if d is None else d) for side, d in deltas.items()]
    sections.append("details (full precision)\n" + _details_block(details))
    _write_output("\n".join(sections), args.output)
    return EXIT_OK


def _resolve_config_path(name: str) -> str:
    if os.path.exists(name):
        return name
    config_dir = os.environ.get("REPLIMETA_CONFIG_DIR")
    if config_dir:
        candidate = os.path.join(config_dir, name)
        if os.path.exists(candidate):
            return candidate
    raise FileNotFoundError(f"config file not found: {name}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    if (args.scenario is None) == (args.config is None):
        raise ValueError("give exactly one of --scenario or --config")
    if args.config is not None:
        scenario, tests, t = parse_scenario_config(_resolve_config_path(args.config))
        if args.replications is not None:
            scenario = replace(scenario, replications=args.replications)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        scenarios = [scenario]
    else:
        replications = args.replications if args.replications is not None else 10_000
        seed = args.seed if args.seed is not None else 0
        scenarios, tests = preset(args.scenario, replications=replications, seed=seed)
        t = 0.05
    points = run_points(scenarios, tests, t if args.t is None else args.t, alpha=0.05)
    buffer = io.StringIO()
    write_power_csv(points, buffer)
    _write_output(buffer.getvalue(), args.out)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    studies = parse_studies(args.input, args.measure)
    # AnalysisRequest rejects fewer than two studies.
    request = AnalysisRequest(studies=tuple(studies), alpha=args.alpha, t=args.truncation)
    profile = request.profile
    level = profile.level
    table = []
    for u in range(1, len(studies) + 1):
        pc = profile.result(u)
        table.append({"u": u, "r_left": pc.r_left, "r_right": pc.r_right,
                      "reject_left": pc.r_left <= level, "reject_right": pc.r_right <= level})
    u_max_left, u_max_right = profile.bounds()

    if args.format == "json":
        payload = {
            "per_side_level": level,
            "truncation_t": args.truncation,
            "u_max_left": u_max_left,
            "u_max_right": u_max_right,
            "table": table,
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
        return EXIT_OK

    lines = [f"{'u':>3}  {'r_left':>12}  {'r_right':>12}  {'reject_left':>11}  {'reject_right':>12}"]
    for row in table:
        lines.append(
            f"{row['u']:>3}  {format_number(row['r_left']):>12}  "
            f"{format_number(row['r_right']):>12}  "
            f"{str(row['reject_left']).lower():>11}  {str(row['reject_right']).lower():>12}"
        )
    lines.append(
        f"u_max(left)={u_max_left}, u_max(right)={u_max_right} "
        f"at per-side level {format_number(level)}"
    )
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_loo(args: argparse.Namespace) -> int:
    studies = parse_studies(args.input, args.measure)
    results = leave_one_out(studies, args.model, args.alpha)

    if args.format == "json":
        payload = {
            "model": args.model,
            "alpha": args.alpha,
            "refits": [
                {
                    "omitted": study.label,
                    "pooled": result.pooled,
                    "se": result.se,
                    "ci_low": result.ci[0],
                    "ci_high": result.ci[1],
                    "p_two_sided": result.p_two_sided,
                    "significant": result.p_two_sided <= args.alpha,
                }
                for study, result in zip(studies, results)
            ],
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
        return EXIT_OK

    label_width = max(len("omitted"), max(len(s.label) for s in studies))
    lines = [
        f"{'omitted':<{label_width}}  {'pooled':>10}  {'95% CI':>22}  {'p':>10}  significant"
    ]
    for study, result in zip(studies, results):
        ci_text = f"[{format_number(result.ci[0])}, {format_number(result.ci[1])}]"
        lines.append(
            f"{study.label:<{label_width}}  {format_number(result.pooled):>10}  {ci_text:>22}  "
            f"{format_number(result.p_two_sided):>10}  {str(result.p_two_sided <= args.alpha).lower()}"
        )
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except StudyFileError as exc:
        print(f"replimeta: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"replimeta: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"replimeta: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
