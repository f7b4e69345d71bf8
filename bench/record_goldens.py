"""Record golden sha256 digests of every output, per workload and seed.

    python3 bench/record_goldens.py

Run from the checkout root, untimed. Each of the seeds 0-19 runs one pass
of every workload; a failed request or cross-check stops the recording and
leaves goldens.json as it was. The digests are stored with the fingerprint they were made
on (interpreter, numpy and scipy versions, machine type, numpy's SIMD
features); run.py names both fingerprints when a digest differs on another
one. Re-record only when a change is meant to alter output bytes, and say
so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import workloads
from workloads import FULL, WORKLOADS

SEEDS = range(20)


def one_pass(workload: str, seed: int, root: str) -> dict[str, str]:
    shutil.rmtree(workloads.workdir(workload), ignore_errors=True)
    reqs = workloads.run_one_pass(workload, seed, FULL, root)
    problems = checks.cross_check(workload, reqs)
    if problems:
        raise RuntimeError(f"{workload} seed {seed}: {problems}")
    return {req.label: checks.sha256_file(req.output) for req in reqs}


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))

    goldens = {"plan": FULL.name, "fingerprint": checks.fingerprint(), "digests": {}}
    for workload in WORKLOADS:
        for seed in SEEDS:
            goldens["digests"].setdefault(workload, {})[str(seed)] = one_pass(workload, seed, root)
            print(f"recorded {workload} seed {seed}", flush=True)
    with open(checks.GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
