"""Criterion-8 curve: inconsistency detection rate against tau at mu = 0.

    python3 bench/tau_curve.py

Untimed; run from the checkout root; it writes bench/criterion8_tau_curve.csv.
For a grid of target median I-squared values it calibrates tau exactly as
the ``re-high-het`` preset does (``calibrate_tau(target, seed=base + 901)``),
then runs the preset's first grid point (mu = 0, eight studies with the
preset group sizes, 10,000 replications, seed ``base``) with the
``inconsistency_detected`` test alone, which is what acceptance criterion 8
measures with ``base = 1008``. The row at target 0.70 therefore reproduces
the rate the criterion reports, and the other rows show which heterogeneity
its [0.45, 0.75] window would need.
"""

from __future__ import annotations

import os
import sys

TARGETS = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.88, 0.90, 0.92, 0.94)
BASE_SEED = 1008
REPLICATIONS = 10_000
OUT = os.path.join("bench", "criterion8_tau_curve.csv")


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    from replimeta.simulation import (
        BENCHMARK_GROUP_SIZES,
        RandomEffectsScenario,
        calibrate_tau,
        simulate_random,
    )

    lines = ["target_median_i2,tau,detection_rate,mc_se,replications,seed,in_window_0.45_0.75"]
    for target in TARGETS:
        tau = calibrate_tau(target, seed=BASE_SEED + 901)
        scenario = RandomEffectsScenario(
            mu=0.0, tau=tau, n=len(BENCHMARK_GROUP_SIZES), group_sizes=BENCHMARK_GROUP_SIZES,
            replications=REPLICATIONS, seed=BASE_SEED,
        )
        point = simulate_random(scenario, ("inconsistency_detected",))
        rate = point.rejection_rate["inconsistency_detected"]
        lines.append(
            f"{target!r},{tau!r},{rate!r},{point.mc_se['inconsistency_detected']!r},"
            f"{REPLICATIONS},{BASE_SEED},{str(0.45 <= rate <= 0.75).lower()}"
        )
    with open(OUT, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
