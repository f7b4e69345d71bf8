"""The program surface that the benchmark harness under ``bench/`` relies on.

The harness times and traces the package from outside: it patches module
attributes, binds the arguments of the grid-point entry points by name, and
rebuilds the criterion-8 tau curve through the public simulation API. These
checks import nothing from ``bench/``; they keep that surface from changing
unnoticed between runs of the benchmark's own smoke test.
"""

import importlib
import inspect
import math

import pytest

from replimeta import simulation
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
    from replimeta import cli

    assert callable(cli.main)
