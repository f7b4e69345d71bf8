"""replimeta benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the program from ``src/`` and
keeps every file it writes under ``.bench_work/``. The last line of stdout is
the result, ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the run record (versions, machine, tail percentiles, sample
counts, golden-check status).

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured on the named workload with tracing off; the times of fresh
processes are scaled to a bare interpreter start (``StartClock``).
BENCHMARK.json lists cli-small and simulate-grid; analyze-large runs too
(README.md says why it is not listed). With ``--trace 1`` they are the per-layer ones, and the traced
run measures each layer on the request set that exercises it (cli-small,
analyze-large, simulate-grid) whichever workload is named, so every traced
run reports the same complete set. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from importlib import metadata

import checks
import tracing
import workloads
from workloads import FULL, WORKLOADS, Plan

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_PROC_BIND",
)
SIM_CAPTURE = ("simulation.simulate_fixed", "simulation.simulate_random")
# A bare interpreter start that nothing in the checkout can reach: -I leaves
# PYTHONPATH and the current directory off sys.path.
BARE_START = [sys.executable, "-I", "-c", "pass"]
# The bare start that process times are scaled to.
REFERENCE_START_S = 0.05
# Bare starts timed before each set-up probe. A run has only a few probes;
# with one bare start each, the scaled set-up time spread wider than the
# unscaled one.
BARE_STARTS_PER_PROBE = 3


class StartClock:
    """Bare interpreter starts, timed next to the program's fresh processes.

    On a shared host the time to start a process and import numpy and scipy
    drifts with the host's load by 15-30% over minutes. A bare
    start drifts with it and with nothing the program does, so a process's
    wall time is reported scaled to a bare start of REFERENCE_START_S:
    wall x REFERENCE_START_S / (median bare start of the run). The wall times
    themselves are in the run record.
    """

    def __init__(self, env: dict[str, str], log: str):
        self.env = env
        self.log = log
        self.samples: list[float] = []

    def tick(self) -> None:
        self.samples.append(workloads.run_process(BARE_START, self.env, self.log).wall_s)

    @property
    def scale(self) -> float:
        return REFERENCE_START_S / statistics.median(self.samples)

    def record(self) -> dict:
        return {"median_s": statistics.median(self.samples), "samples": len(self.samples),
                "scale": self.scale}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def min_samples(workload: str, plan: Plan) -> int:
    """Samples needed for ``plan.min_beyond`` of them to lie beyond the tail percentile."""
    share_beyond = 1.0 - workloads.TAIL_PERCENTILE[workload] / 100.0
    return int(-(-plan.min_beyond // share_beyond))


def latency_metrics(workload: str, samples: list[float]) -> tuple[dict, dict]:
    q = workloads.TAIL_PERCENTILE[workload]
    tail = percentile(samples, q)
    info = {"percentile": q, "samples": len(samples), "beyond": sum(s > tail for s in samples)}
    return {"latency_p50_ms": statistics.median(samples) * 1e3, "latency_tail_ms": tail * 1e3}, info


def fresh(workload: str) -> None:
    """Remove what an earlier run of this workload left behind."""
    shutil.rmtree(workloads.workdir(workload), ignore_errors=True)


def log_path(workload: str, name: str) -> str:
    return os.path.join(workloads.workdir(workload), "log", name)


class Probes:
    """Fresh processes that import replimeta.cli and build the inputs.

    For analyze-large each probe also runs the first (cold) pass. The probes
    are spread evenly over the run's seconds, so that their medians average
    over the same stretch of machine time as the other metrics.
    """

    def __init__(self, workload: str, seed: int, plan: Plan, root: str, checker, seconds: float):
        self.cmd = [sys.executable, CHILD, "setup", workload, str(seed), plan.name]
        self.env = workloads.program_env(root)
        self.clock = StartClock(self.env, log_path(workload, "bare.err"))
        self.workload = workload
        self.count = plan.probes
        self.every = seconds / plan.probes
        self.checker = checker
        self.reports: list[dict] = []

    @property
    def done(self) -> bool:
        return len(self.reports) == self.count

    def due(self, elapsed: float) -> None:
        """Run the next probe if its time has come."""
        if not self.done and elapsed >= len(self.reports) * self.every:
            self.run()

    def run(self) -> None:
        for _ in range(BARE_STARTS_PER_PROBE):
            self.clock.tick()
        result = workloads.run_process(self.cmd, self.env, log_path(self.workload, "probe.err"))
        if result.error is not None:
            raise RuntimeError(f"set-up probe failed: {result.error}")
        report = json.loads(result.stdout.splitlines()[-1])
        for label, (error, digest) in report.get("results", {}).items():
            self.checker.record(label, error, digest)
        self.reports.append(report)

    def median(self, key: str) -> float:
        return statistics.median(report[key] for report in self.reports)

    def setup_s(self) -> float:
        """Median set-up time, scaled by the bare starts timed before the probes."""
        return self.median("setup_s") * self.clock.scale

    def samples(self, key: str) -> list[float]:
        return [report[key] for report in self.reports]


def import_program(root: str) -> None:
    src = os.path.join(root, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import replimeta

    if not os.path.abspath(replimeta.__file__).startswith(src + os.sep):
        raise RuntimeError(f"replimeta imported from {replimeta.__file__}, not from {src}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(reqs, inputs, checker, latencies: list[float] | None = None) -> float:
    """Run one in-process pass; return the summed request time."""
    errors = {}
    total = 0.0
    for req in reqs:
        elapsed, errors[req.label] = workloads.run_inprocess(req, inputs)
        total += elapsed
        if latencies is not None:
            latencies.append(elapsed)
    checker.record_pass(errors)
    return total


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


def measure_cli_small(seed: int, seconds: float, plan: Plan, root: str, checker) -> tuple[dict, dict]:
    """Closed loop, one client: one ``python -m replimeta`` process at a time."""
    env = workloads.program_env(root)
    workloads.build_inputs("cli-small", seed, plan)
    probes = Probes("cli-small", seed, plan, root, checker, seconds)
    reqs = checker.reqs
    clock = StartClock(env, log_path("cli-small", "bare.err"))
    walls, rss_kb, cpu, errors = [], [], [], {}
    needed = max(min_samples("cli-small", plan), len(reqs))
    start = time.perf_counter()
    while len(walls) < needed or not probes.done or time.perf_counter() - start < seconds:
        probes.due(time.perf_counter() - start)
        clock.tick()
        req = reqs[len(walls) % len(reqs)]
        result = workloads.run_process(workloads.replimeta_cmd(req), env, log_path("cli-small", "request.err"))
        walls.append(result.wall_s)
        rss_kb.append(result.maxrss_kb)
        cpu.append(result.cpu_s)
        errors[req.label] = result.error
        if len(walls) % len(reqs) == 0:
            checker.record_pass(errors)
            errors = {}
    if errors:
        checker.record_pass(errors)
    passes = len(walls) // len(reqs)
    wall_metrics, tail = latency_metrics("cli-small", walls)
    wall_metrics["cold_s"] = statistics.median(sum(walls[i * len(reqs) : (i + 1) * len(reqs)])
                                               for i in range(passes))
    metrics = {name: value * clock.scale for name, value in wall_metrics.items()}
    metrics.update(setup_s=probes.setup_s(), peak_rss_mb=statistics.median(rss_kb) / 1024.0)
    record = {
        "tail": tail,
        "wall_metrics": wall_metrics,
        "bare_start": clock.record(),
        "setup_wall_samples_s": probes.samples("setup_s"),
        "setup_bare_start": probes.clock.record(),
        "cold_definition": "median wall time of a complete pass, scaled; every request is a fresh process",
        "passes": passes,
        "child_cpu_s_median": statistics.median(cpu),
        "per_request_median_ms": per_request_medians(reqs, walls),
    }
    return metrics, record


def per_request_medians(reqs, samples: list[float]) -> dict[str, float]:
    return {
        req.label: statistics.median(samples[i :: len(reqs)]) * 1e3
        for i, req in enumerate(reqs)
        if samples[i :: len(reqs)]
    }


def measure_analyze_large(seed: int, seconds: float, plan: Plan, root: str, checker) -> tuple[dict, dict]:
    """Closed loop, one client, in-process ``cli.main`` and library calls."""
    import_program(root)
    inputs = workloads.build_inputs("analyze-large", seed, plan)
    reqs = checker.reqs
    run_pass(reqs, inputs, checker)  # this process's cold pass; the probes time cold passes
    probes = Probes("analyze-large", seed, plan, root, checker, seconds)
    latencies: list[float] = []
    needed = min_samples("analyze-large", plan)
    start = time.perf_counter()
    while len(latencies) < needed or not probes.done or time.perf_counter() - start < seconds:
        probes.due(time.perf_counter() - start)
        run_pass(reqs, inputs, checker, latencies)
    metrics, tail = latency_metrics("analyze-large", latencies)
    per_request = per_request_medians(reqs, latencies)
    metrics.update(
        # The 17 requests differ in cost by up to 200x, and the pooled median
        # falls in the gap below the n = 200 requests, where a few noisy
        # samples move it by a quarter; the median request's median does not.
        latency_p50_ms=statistics.median(per_request.values()),
        setup_s=probes.setup_s(),
        cold_s=probes.median("cold_s"),
        peak_rss_mb=peak_rss_mb(),
    )
    record = {
        "tail": tail,
        "pooled_p50_ms": statistics.median(latencies) * 1e3,
        "setup_wall_samples_s": probes.samples("setup_s"),
        "setup_bare_start": probes.clock.record(),
        "cold_samples_s": probes.samples("cold_s"),
        "cold_definition": "median over fresh processes of the first pass's wall time",
        "warm_passes": len(latencies) // len(reqs),
        "per_request_median_ms": per_request,
    }
    return metrics, record


@contextlib.contextmanager
def timed_points(samples: list[float], rows: list[int]):
    """Time each grid point (one simulate_fixed/simulate_random call of run_points)."""
    from replimeta import simulation

    originals = {name: getattr(simulation, name) for name in ("simulate_fixed", "simulate_random")}

    def timed(fn):
        def point(scenario, *args, **kwargs):
            start = time.perf_counter()
            result = fn(scenario, *args, **kwargs)
            samples.append(time.perf_counter() - start)
            rows.append(scenario.replications)
            return result

        return point

    for name, fn in originals.items():
        setattr(simulation, name, timed(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(simulation, name, fn)


def measure_simulate_grid(seed: int, seconds: float, plan: Plan, root: str, checker) -> tuple[dict, dict]:
    """Closed loop, one client, in-process ``cli.main(["simulate", ...])`` writing CSV."""
    import_program(root)
    inputs = workloads.build_inputs("simulate-grid", seed, plan)
    reqs = checker.reqs
    probes = Probes("simulate-grid", seed, plan, root, checker, seconds)
    points: list[float] = []
    rows: list[int] = []
    pass_walls: list[float] = []
    needed = min_samples("simulate-grid", plan)
    start = time.perf_counter()
    with timed_points(points, rows):
        # At least two passes, so that every run compares two same-seed CSVs.
        while len(pass_walls) < 2 or len(points) < needed or time.perf_counter() - start < seconds:
            errors = {}
            wall = 0.0
            for req in reqs:
                probes.due(time.perf_counter() - start)
                elapsed, errors[req.label] = workloads.run_inprocess(req, inputs)
                wall += elapsed
            checker.record_pass(errors)
            pass_walls.append(wall)
    while not probes.done:
        probes.run()
    metrics, tail = latency_metrics("simulate-grid", points)
    metrics.update(
        setup_s=probes.setup_s(),
        cold_s=pass_walls[0],
        peak_rss_mb=peak_rss_mb(),
    )
    record = {
        "tail": tail,
        "latency_unit": "one grid point (simulate_fixed or simulate_random call)",
        "setup_wall_samples_s": probes.samples("setup_s"),
        "setup_bare_start": probes.clock.record(),
        "cold_definition": "wall time of the first pass of this fresh process",
        "pass_walls_s": pass_walls,
        "rows": sum(rows),
        "sim_reps_per_s": sum(rows) / sum(pass_walls),
    }
    return metrics, record


MEASURE = {
    "cli-small": measure_cli_small,
    "analyze-large": measure_analyze_large,
    "simulate-grid": measure_simulate_grid,
}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def overhead_pct(traced: list[float], untraced: list[float]) -> float:
    base = statistics.median(untraced)
    return (statistics.median(traced) - base) / base * 100.0


def trace_cli_small(seed, budget, plan, root, store, checker) -> tuple[dict, dict]:
    env = workloads.program_env(root)
    interp = [
        workloads.run_process([sys.executable, "-c", "pass"], env, log_path("cli-small", "interp.err")).wall_s
        for _ in range(plan.probes)
    ]
    workloads.build_inputs("cli-small", seed, plan)
    reqs = checker.reqs
    untraced, traced, cpu, imports, mains = [], [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < budget:
        errors, wall = {}, 0.0
        for req in reqs:
            result = workloads.run_process(workloads.replimeta_cmd(req), env, log_path("cli-small", "request.err"))
            wall += result.wall_s
            cpu.append(result.cpu_s)
            errors[req.label] = result.error
        checker.record_pass(errors)
        untraced.append(wall)
        errors, wall = {}, 0.0
        for req in reqs:
            spans_path = log_path("cli-small", "child-spans.json")
            cmd = [sys.executable, CHILD, "traced", spans_path, *req.argv]
            result = workloads.run_process(cmd, env, log_path("cli-small", "traced.err"))
            wall += result.wall_s
            error = result.error
            if error is None:
                report = json.loads(result.stdout.splitlines()[-1])
                imports.append(report["import_s"])
                if report["code"] != 0:
                    error = f"exit status {report['code']}"
                first = len(store)
                with open(spans_path, "r", encoding="utf-8") as handle:
                    store.extend(json.load(handle), store.new_request(f"cli-small/{req.label}"))
                mains += [store.end[i] - store.start[i] for i in range(first, len(store))
                          if store.names[store.name[i]] == "cli.main"]
            errors[req.label] = error
        checker.record_pass(errors)
        traced.append(wall)
    metrics = {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "cli.main_s": statistics.median(mains),
        "cli.cpu_s": statistics.median(cpu),
        "trace.cli_overhead_pct": overhead_pct(traced, untraced),
    }
    return metrics, {"untraced_pass_s": untraced, "traced_pass_s": traced, "processes": len(cpu)}


def analyze_layers(summary: dict) -> dict:
    calls, total = summary["calls"], summary["total_s"]
    pool = ("meta.fixed_effect_meta", "meta.random_effects_meta")
    return {
        "cli.format_s": summary["self_s"].get("cli.main", 0.0),
        "report.parse_studies_s": total.get("report.parse_studies", 0.0),
        "report.analyze_s": total.get("report.analyze", 0.0),
        "report.pc_summary_s": total.get("report.partial_conjunction_summary", 0.0),
        "meta.pool_calls": sum(calls.get(name, 0) for name in pool),
        "meta.pool_s": sum(total.get(name, 0.0) for name in pool),
        "meta.loo_s": total.get("meta.leave_one_out", 0.0),
        "statkernels.one_sided_p_calls": calls.get("statkernels.one_sided_p", 0),
        "statkernels.one_sided_p_s": total.get("statkernels.one_sided_p", 0.0),
        "replicability.pc_calls": calls.get("replicability.partial_conjunction_p", 0),
        "replicability.pc_s": total.get("replicability.partial_conjunction_p", 0.0),
        "replicability.delta_bound_s": total.get("replicability.delta_bound", 0.0),
        "replicability.delta_pc_calls": summary["under_delta"].get("replicability.partial_conjunction_p", 0),
        "replicability.fe_r_value_s": total.get("replicability.fe_r_value", 0.0),
        "forest.render_s": total.get("forest.render_forest", 0.0),
    }


def traced_pass(workload, reqs, inputs, checker, tracer) -> tuple[float, dict]:
    """One pass with the tracer installed; return its request time and span summary."""
    first = len(tracer.store)
    errors = {}
    wall = 0.0
    tracer.install()
    try:
        for req in reqs:
            tracer.request = tracer.store.new_request(f"{workload}/{req.label}")
            elapsed, errors[req.label] = workloads.run_inprocess(req, inputs)
            wall += elapsed
    finally:
        tracer.uninstall()
    checker.record_pass(errors)
    return wall, tracing.summarize(tracer.store, first)


def trace_analyze_large(seed, budget, plan, root, store, checker) -> tuple[dict, dict]:
    import_program(root)
    inputs = workloads.build_inputs("analyze-large", seed, plan)
    reqs = checker.reqs
    run_pass(reqs, inputs, checker)  # cold pass, so that traced and untraced passes are both warm
    tracer = tracing.Tracer(store)
    untraced, traced, per_pass, layer_self = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < budget:
        untraced.append(run_pass(reqs, inputs, checker))
        wall, summary = traced_pass("analyze-large", reqs, inputs, checker, tracer)
        traced.append(wall)
        per_pass.append(analyze_layers(summary))
        layer_self.append(summary["layer_self_s"])
    # Counts repeat exactly from pass to pass; median_low keeps them whole.
    metrics = {
        name: (statistics.median_low if isinstance(value, int) else statistics.median)(p[name] for p in per_pass)
        for name, value in per_pass[0].items()
    }
    metrics["trace.analyze_overhead_pct"] = overhead_pct(traced, untraced)
    record = {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "layer_self_s_per_pass": {layer: statistics.median(p.get(layer, 0.0) for p in layer_self)
                                  for layer in tracing.LAYERS},
    }
    return metrics, record


def decompose_points(captured) -> dict:
    """Re-run every captured grid point draw-only and with each of its tests alone."""
    draw_s = 0.0
    test_s = {test: 0.0 for test in workloads.SIM_TESTS}
    for fn, bound in captured:
        bound.apply_defaults()
        tests = tuple(bound.arguments["tests"])

        def timed(only: tuple[str, ...]) -> float:
            bound.arguments["tests"] = only
            start = time.perf_counter()
            fn(*bound.args, **bound.kwargs)
            return time.perf_counter() - start

        # The first run of a point also pays for fresh pages; the median of
        # three draw-only runs is the cost its test runs actually share.
        draw = statistics.median(timed(()) for _ in range(3))
        draw_s += draw
        for test in tests:
            test_s[test] += timed((test,)) - draw
    metrics = {"simulation.draw_s": draw_s}
    metrics.update({f"simulation.test.{test}_s": value for test, value in test_s.items()})
    return metrics


def trace_simulate_grid(seed, budget, plan, root, store, checker) -> tuple[dict, dict]:
    import_program(root)
    inputs = workloads.build_inputs("simulate-grid", seed, plan)
    reqs = checker.reqs
    untraced = run_pass(reqs, inputs, checker)
    tracer = tracing.Tracer(store, capture=SIM_CAPTURE)
    traced, summary = traced_pass("simulate-grid", reqs, inputs, checker, tracer)
    captured = [call for name in SIM_CAPTURE for call in tracer.captured[name]]
    total = summary["total_s"]
    metrics = {
        "simulation.preset_s": total.get("simulation.preset", 0.0),
        "simulation.calibrate_tau_s": total.get("simulation.calibrate_tau", 0.0),
        "simulation.rows": sum(bound.arguments["scenario"].replications for _, bound in captured),
        "simulation.csv_s": total.get("simulation.write_power_csv", 0.0),
        "trace.sim_overhead_pct": overhead_pct([traced], [untraced]),
    }
    metrics.update(decompose_points(captured))
    record = {"untraced_pass_s": untraced, "traced_pass_s": traced, "points": len(captured),
              "layer_self_s": summary["layer_self_s"]}
    return metrics, record


TRACE = (
    ("cli-small", trace_cli_small),
    ("analyze-large", trace_analyze_large),
    ("simulate-grid", trace_simulate_grid),
)


def measure_traced(workload: str, seed: int, seconds: float, plan: Plan, root: str):
    """Per-layer metrics of every workload, with spans written to .bench_work/trace/."""
    store = tracing.SpanStore()
    metrics: dict = {}
    record: dict = {}
    checkers = []
    for name, trace in TRACE:
        fresh(name)
        checker = checks.OutputChecker(name, seed, plan, workloads.requests(name, seed, plan))
        # cli-small and analyze-large repeat untraced/traced pass pairs for a
        # quarter of the run's seconds each; simulate-grid runs one pair.
        found, record[name] = trace(seed, seconds / 4.0, plan, root, store, checker)
        metrics.update(found)
        record[name]["golden"] = checker.golden_status
        checkers.append(checker)
    spans_dir = os.path.join(workloads.WORK_ROOT, "trace")
    shutil.rmtree(spans_dir, ignore_errors=True)  # keep only the latest run's spans
    os.makedirs(spans_dir)
    spans_path = os.path.join(spans_dir, f"spans-{workload}-seed{seed}.jsonl")
    store.write(spans_path, {"workload": workload, "seed": seed})
    record["spans_file"] = spans_path
    record["spans"] = len(store)
    return metrics, record, checkers


# ---------------------------------------------------------------------------
# Run record and entry point
# ---------------------------------------------------------------------------


def _commit(root: str) -> str | None:
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(root: str) -> str:
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "replimeta")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict | None:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        return None


def run_record(args, plan: Plan, root: str, extra: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "plan": plan.name,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(root),
        "source_sha256": _source_sha256(root),
        "thread_env_as_found": {name: os.environ.get(name) for name in THREAD_ENV},
        "blas": _blas(),
        **extra,
    }


def _load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None, plan: Plan = FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "replimeta", "__init__.py")):
        print("bench: run from a replimeta checkout: src/replimeta is missing", file=sys.stderr)
        return 2
    spec = _load_benchmark(root)

    if args.trace:
        values, extra, checkers = measure_traced(args.workload, args.seed, args.seconds, plan, root)
        names = spec["per_layer"]
    else:
        fresh(args.workload)
        checker = checks.OutputChecker(
            args.workload, args.seed, plan, workloads.requests(args.workload, args.seed, plan)
        )
        values, extra = MEASURE[args.workload](args.seed, args.seconds, plan, root, checker)
        extra["golden"] = checker.golden_status
        checkers = [checker]
        names = spec["end_to_end"]
    extra["problems"] = [problem for checker in checkers for problem in checker.problems]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    attempted = sum(checker.attempted for checker in checkers)
    failed = sum(checker.failed for checker in checkers)
    print(json.dumps({"run_record": run_record(args, plan, root, extra)}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
