"""Seeded inputs, request lists and passes of the three benchmark workloads.

A workload is a fixed list of requests (one *pass*) over inputs generated
from the benchmark seed. Every path handed to the program is relative to the
checkout root, so output bytes (the analyze JSON records its ``--input``)
do not depend on where the checkout lives.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

WORKLOADS = ("cli-small", "analyze-large", "simulate-grid")
WORK_ROOT = ".bench_work"
SIM_TESTS = ("meta_fe", "meta_re", "H1n", "H2n", "H3n", "H2n_fe", "inconsistency_detected")


@dataclass(frozen=True)
class Plan:
    """Input sizes and sample rules; ``FULL`` is what the benchmark runs."""

    name: str
    analyze_ns: tuple[int, ...]
    # fe_r_value calls as (n, u) on the first n studies of the largest set.
    fe_calls: tuple[tuple[int, int], ...]
    preset_replications: int
    config_replications: int
    # Fresh processes per run that time set-up (and the cold pass).
    probes: int
    # A tail percentile is reported only with this many samples beyond it.
    min_beyond: int


FULL = Plan("full", (50, 200, 1000), ((200, 2), (20, 10)), 100_000, 1_000_000, 5, 10)
# For the smoke test only: same request shapes, tiny sizes.
TINY = Plan("tiny", (6, 10, 16), ((10, 2), (8, 4)), 300, 2_000, 2, 1)
PLANS = {plan.name: plan for plan in (FULL, TINY)}

# Tail percentile per workload: the highest of p75/p90/p95/p99 that keeps at
# least ten samples beyond it at the sample counts a FULL run reaches on a
# fast machine. A run extends past --seconds until it has those samples; for
# analyze-large that is 12 warm passes, which also steadies its p50.
TAIL_PERCENTILE = {"cli-small": 75, "analyze-large": 95, "simulate-grid": 75}


@dataclass(frozen=True)
class Request:
    """One operation of a pass: a CLI invocation or a library call.

    ``argv`` is the replimeta argument list; ``fe`` is ``(n, u)`` for an
    ``fe_r_value`` library call. Either way the result lands in ``output``.
    """

    label: str
    output: str
    argv: tuple[str, ...] | None = None
    fe: tuple[int, int] | None = None


def workdir(workload: str) -> str:
    return os.path.join(WORK_ROOT, workload)


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _study_rows(rng: random.Random, n: int) -> list[tuple[str, float, float]]:
    # Every fifth true effect is negative and large enough that both
    # directions are significant at u = 2 (at n = 50 for each of seeds
    # 0-199), so both sides of the delta bisection run and the work per
    # request barely depends on the seed.
    rows = []
    for i in range(n):
        se = rng.uniform(0.08, 0.4)
        theta = -rng.uniform(0.7, 1.0) if i % 5 == 4 else abs(rng.gauss(0.3, 0.15))
        rows.append((f"s{i + 1:04d}", theta + rng.gauss(0.0, se), se))
    return rows


def _estimates_csv(rows: list[tuple[str, float, float]]) -> str:
    return "label,estimate,se\n" + "".join(f"{label},{est!r},{se!r}\n" for label, est, se in rows)


def _counts_csv(rng: random.Random, n: int) -> str:
    lines = ["label,events_t,total_t,events_c,total_c"]
    for i in range(n):
        total_t = rng.randint(20, 300)
        total_c = rng.randint(20, 300)
        risk_c = rng.uniform(0.05, 0.4)
        odds_t = risk_c / (1.0 - risk_c) * math.exp(rng.gauss(0.4, 0.3))
        risk_t = odds_t / (1.0 + odds_t)
        events_t = sum(rng.random() < risk_t for _ in range(total_t))
        events_c = sum(rng.random() < risk_c for _ in range(total_c))
        lines.append(f"t{i + 1:02d},{events_t},{total_t},{events_c},{total_c}")
    return "\n".join(lines) + "\n"


def _config_text(rng: random.Random, seed: int, replications: int) -> str:
    signs = [1.0] * 5 + [-1.0] * 3
    rng.shuffle(signs)
    theta = [sign * rng.uniform(0.1, 0.6) for sign in signs]
    nc = [rng.randint(15, 220) for _ in signs]
    nt = [rng.randint(15, 220) for _ in signs]
    return (
        "# 8 studies with mixed signs, every test id\n"
        f"theta = {' '.join(repr(x) for x in theta)}\n"
        f"nc = {' '.join(map(str, nc))}\n"
        f"nt = {' '.join(map(str, nt))}\n"
        f"replications = {replications}\n"
        f"seed = {seed}\n"
        f"tests = {' '.join(SIM_TESTS)}\n"
    )


def build_inputs(workload: str, seed: int, plan: Plan) -> dict:
    """Write the workload's input files; return what its passes need."""
    rng = random.Random(f"{workload}/{seed}")
    base = workdir(workload)
    os.makedirs(os.path.join(base, "out"), exist_ok=True)
    inputs: dict = {}
    if workload == "cli-small":
        _write(os.path.join(base, "in", "estimates.csv"), _estimates_csv(_study_rows(rng, 8)))
        _write(os.path.join(base, "in", "counts.csv"), _counts_csv(rng, 8))
    elif workload == "analyze-large":
        largest: list = []
        for n in plan.analyze_ns:
            rows = _study_rows(rng, n)
            _write(os.path.join(base, "in", f"studies_n{n}.csv"), _estimates_csv(rows))
            largest = rows
        from replimeta.meta import StudySummary

        inputs["fe_studies"] = [StudySummary(label, est, se) for label, est, se in largest]
    elif workload == "simulate-grid":
        _write(os.path.join(base, "in", "mixed8.cfg"), _config_text(rng, seed, plan.config_replications))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def requests(workload: str, seed: int, plan: Plan) -> list[Request]:
    """The requests of one pass, in order."""
    base = workdir(workload)
    inp = os.path.join(base, "in")
    out = os.path.join(base, "out")
    reqs: list[Request] = []
    if workload == "cli-small":
        for name, extra in (("estimates", ()), ("counts", ("--measure", "odds_ratio"))):
            src = ("--input", os.path.join(inp, f"{name}.csv"), *extra)
            for kind, args, ext in (
                ("analyze-text", ("analyze",), "txt"),
                ("analyze-json", ("analyze", "--format", "json"), "json"),
                ("analyze-svg", ("analyze", "--format", "svg"), "svg"),
                ("bounds-json", ("bounds", "--format", "json"), "json"),
                ("loo-text", ("loo",), "txt"),
            ):
                path = os.path.join(out, f"{name}-{kind}.{ext}")
                reqs.append(Request(f"{name}/{kind}", path, (*args, *src, "--output", path)))
    elif workload == "analyze-large":
        for n in plan.analyze_ns:
            src = ("--input", os.path.join(inp, f"studies_n{n}.csv"))
            for kind, args, ext in (
                ("analyze-json", ("analyze", "--format", "json", "--model", "auto", "--u", "3",
                                  "--delta-bounds"), "json"),
                ("bounds-json", ("bounds", "--format", "json"), "json"),
                ("loo-text", ("loo", "--model", "random"), "txt"),
                ("analyze-svg", ("analyze", "--format", "svg"), "svg"),
                ("analyze-text", ("analyze",), "txt"),
            ):
                path = os.path.join(out, f"n{n}-{kind}.{ext}")
                reqs.append(Request(f"n{n}/{kind}", path, (*args, *src, "--output", path)))
        for n, u in plan.fe_calls:
            reqs.append(Request(f"fe_r_value/n{n}-u{u}", os.path.join(out, f"fe-n{n}-u{u}.txt"), fe=(n, u)))
    elif workload == "simulate-grid":
        common = ("--replications", str(plan.preset_replications), "--seed", str(seed))
        for name, extra in (
            ("two-same-sign", ()),
            ("common-effect-2", ()),
            ("single-among-n", ()),
            ("re-high-het", ()),
            ("mixed-signs", ("--t", "1.0")),
        ):
            path = os.path.join(out, f"{name}.csv")
            reqs.append(Request(name, path, ("simulate", "--scenario", name, *common, *extra,
                                             "--out", path)))
        path = os.path.join(out, "config-mixed8.csv")
        reqs.append(Request("config-mixed8", path,
                            ("simulate", "--config", os.path.join(inp, "mixed8.cfg"), "--out", path)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return reqs


def expected_csv_rows(label: str) -> int:
    """Data rows (points x tests) of a simulate request's CSV."""
    return {
        "two-same-sign": 7 * 6,
        "common-effect-2": 9 * 2,
        "single-among-n": 3 * 2,
        "re-high-het": 4 * 5,
        "mixed-signs": 6 * 6,
        "config-mixed8": 1 * len(SIM_TESTS),
    }[label]


# ---------------------------------------------------------------------------
# Running requests
# ---------------------------------------------------------------------------


def _format_fe(result) -> str:
    return f"u={result.u}\nr_left={result.r_left!r}\nr_right={result.r_right!r}\nr={result.r!r}\n"


def run_inprocess(req: Request, inputs: dict) -> tuple[float, str | None]:
    """Run one request in this process; return (seconds, error or None).

    The program is looked up as a module attribute on every call, so a
    tracer that patches ``replimeta.cli.main`` sees it.
    """
    from replimeta import cli, replicability

    os.makedirs(os.path.dirname(req.output), exist_ok=True)
    try:
        if req.argv is not None:
            start = time.perf_counter()
            code = cli.main(list(req.argv))
            elapsed = time.perf_counter() - start
            return elapsed, None if code == 0 else f"exit status {code}"
        n, u = req.fe
        studies = inputs["fe_studies"][:n]
        start = time.perf_counter()
        result = replicability.fe_r_value(studies, u)
        elapsed = time.perf_counter() - start
        _write(req.output, _format_fe(result))
        return elapsed, None
    except Exception:  # the benchmark keeps running and counts the failure
        return 0.0, traceback.format_exc(limit=3)


def program_env(root: str) -> dict[str, str]:
    """The environment as found, with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ProcessResult:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    error: str | None
    stdout: str


def run_process(cmd: list[str], env: dict[str, str], log_path: str) -> ProcessResult:
    """Run one child to completion; wall time, CPU and peak RSS come from wait4."""
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    out_path = log_path + ".out"
    with open(out_path, "wb") as out, open(log_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "r", encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    error = None
    if proc.returncode != 0:
        with open(log_path, "r", encoding="utf-8", errors="replace") as handle:
            error = f"exit status {proc.returncode}: {handle.read()[-2000:]}"
    return ProcessResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, error, stdout)


def replimeta_cmd(req: Request) -> list[str]:
    return [sys.executable, "-m", "replimeta", *req.argv]


def run_one_pass(workload: str, seed: int, plan: Plan, root: str) -> list[Request]:
    """Build the inputs and run one untimed pass; raise on the first failed request."""
    inputs = build_inputs(workload, seed, plan)
    reqs = requests(workload, seed, plan)
    env = program_env(root)
    for req in reqs:
        if workload == "cli-small":
            error = run_process(replimeta_cmd(req), env, os.path.join(workdir(workload), "log", "request.err")).error
        else:
            error = run_inprocess(req, inputs)[1]
        if error is not None:
            raise RuntimeError(f"{workload} seed {seed} {req.label}: {error}")
    return reqs
