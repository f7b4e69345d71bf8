"""The program surface that the benchmark harness under ``bench/`` relies on.

The harness times and traces the package from outside: it patches module
attributes, binds the arguments of the grid-point entry points by name, and
rebuilds the criterion-8 tau curve through the public simulation API. These
checks import nothing from ``bench/``; they keep that surface from changing
unnoticed between runs of the benchmark's own smoke test.
"""

import functools
import importlib
import inspect
import io
import json
import math

import pytest

import replimeta
from replimeta import cli, replicability, simulation
from replimeta.report import parse_studies
from replimeta.simulation import (
    BENCHMARK_GROUP_SIZES,
    FixedEffectsScenario,
    RandomEffectsScenario,
    calibrate_tau,
    run_points,
    simulate_random,
)

TRACED_MODULES = ("statkernels", "meta", "replicability", "report", "forest", "simulation")


def test_run_points_reaches_each_point_through_the_module_attributes(monkeypatch):
    """Wrapping ``simulation.simulate_fixed``/``simulate_random`` sees every grid point."""
    calls = []
    for name in ("simulate_fixed", "simulate_random"):
        original = getattr(simulation, name)

        def counted(scenario, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, scenario))
            return _original(scenario, *args, **kwargs)

        monkeypatch.setattr(simulation, name, counted)
    fixed = FixedEffectsScenario(
        theta=(0.5,) * len(BENCHMARK_GROUP_SIZES), group_sizes=BENCHMARK_GROUP_SIZES,
        replications=200, seed=1,
    )
    random = RandomEffectsScenario(
        mu=0.2, tau=0.3, n=len(BENCHMARK_GROUP_SIZES), group_sizes=BENCHMARK_GROUP_SIZES,
        replications=200, seed=2,
    )
    points = run_points([fixed, random], ("H2n",))
    assert calls == [("simulate_fixed", fixed), ("simulate_random", random)]
    assert [point.replications for point in points] == [200, 200]


@pytest.mark.parametrize("name", ["simulate_fixed", "simulate_random"])
def test_point_entry_points_bind_scenario_and_tests_by_name(name):
    parameters = inspect.signature(getattr(simulation, name)).parameters
    assert list(parameters)[:2] == ["scenario", "tests"]


def test_tau_curve_calls_work_at_small_replication_counts():
    tau = calibrate_tau(0.7, seed=5)
    assert tau > 0.0
    scenario = RandomEffectsScenario(
        mu=0.0, tau=tau, n=len(BENCHMARK_GROUP_SIZES), group_sizes=BENCHMARK_GROUP_SIZES,
        replications=300, seed=7,
    )
    point = simulate_random(scenario, ("inconsistency_detected",))
    rate = point.rejection_rate["inconsistency_detected"]
    assert point.mc_se["inconsistency_detected"] == math.sqrt(rate * (1.0 - rate) / 300)


@pytest.mark.parametrize("layer", TRACED_MODULES)
def test_traced_modules_export_names_that_resolve(layer):
    module = importlib.import_module(f"replimeta.{layer}")
    assert module.__all__
    for name in module.__all__:
        assert hasattr(module, name), name


def test_cli_main_exists():
    assert callable(cli.main)


# The functions behind the benchmark's call counts. Both directions of the
# study set below are significant at u = 3, so delta_bound runs its
# bisection on both sides.
COUNTED = (
    "fixed_effect_meta", "random_effects_meta", "one_sided_p", "partial_conjunction_p", "delta_bound",
)
BOTH_DIRECTIONS = (
    "label,estimate,se\na,3.0,0.5\nb,2.6,0.5\nc,2.9,0.5\nd,-3.0,0.5\ne,-2.7,0.5\nf,-2.8,0.5\n"
)


def test_every_counted_call_runs_in_the_benchmark_analyze_command(monkeypatch, tmp_path, capsys):
    """The benchmark's call counts read calls that ``analyze --delta-bounds`` still makes.

    Each binding of a counted function in every traced module is wrapped, as
    the benchmark's tracer does, so a refactor that routes around one of them
    fails here rather than as a zero count in the benchmark's smoke test.
    """
    calls = dict.fromkeys(COUNTED, 0)
    calls["partial_conjunction_p inside delta_bound"] = 0
    depth = [0]

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "partial_conjunction_p" and depth[0]:
                calls["partial_conjunction_p inside delta_bound"] += 1
            depth[0] += name == "delta_bound"
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= name == "delta_bound"

        return wrapper

    modules = [importlib.import_module(f"replimeta.{layer}") for layer in TRACED_MODULES + ("cli",)]
    for name in COUNTED:
        fn = getattr(replimeta, name)
        wrapper = counted(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)

    path = tmp_path / "both.csv"
    path.write_text(BOTH_DIRECTIONS)
    argv = ["analyze", "--input", str(path), "--format", "json", "--model", "auto", "--u", "3",
            "--delta-bounds"]
    assert cli.main(argv) == 0
    deltas = json.loads(capsys.readouterr().out)["replicability"]["delta_bounds"]
    assert deltas["upper_positive"] is not None and deltas["lower_negative"] is not None
    # meta.pool_calls counts both pooling calls; the rest count one function each.
    assert calls["fixed_effect_meta"] + calls["random_effects_meta"] > 0
    for name in ("one_sided_p", "partial_conjunction_p", "delta_bound",
                 "partial_conjunction_p inside delta_bound"):
        assert calls[name] > 0, name


@pytest.mark.parametrize("side", ["upper_positive", "lower_negative"])
def test_delta_bound_runs_one_partial_conjunction_test_per_bisection_step(monkeypatch, side):
    """``replicability.delta_pc_calls`` counts one call per shifted test: 24 per
    side on the study set above at u = 3, as when each step built its p-values
    study by study."""
    calls = []
    original = replicability.partial_conjunction_p
    monkeypatch.setattr(
        replicability, "partial_conjunction_p", lambda *args: calls.append(args) or original(*args)
    )
    studies = parse_studies(io.StringIO(BOTH_DIRECTIONS))
    assert replicability.delta_bound(studies, 3, side=side) is not None
    assert len(calls) == 24
