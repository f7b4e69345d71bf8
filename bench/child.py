"""Fresh-process probes started by run.py; each prints one JSON line.

    child.py setup WORKLOAD SEED PLAN
        Time ``import replimeta.cli`` plus building the workload's inputs.
        For analyze-large also run the first (cold) pass and report its wall
        time and the digest of every output.

    child.py traced SPANS_PATH ARG...
        Time ``import replimeta.cli``, then run ``replimeta.cli.main(ARG...)``
        with the tracer installed and write its spans to SPANS_PATH.

Run from the checkout root, like run.py.
"""

from __future__ import annotations

import os
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    sys.path.insert(0, os.path.abspath("src"))
    import replimeta.cli  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - start
    # The benchmark's own modules load only now, so that no standard-library
    # module the program needs is already loaded when its import is timed.
    import json

    import checks
    import tracing
    import workloads

    mode = argv[0]
    if mode == "setup":
        workload, seed, plan = argv[1], int(argv[2]), workloads.PLANS[argv[3]]
        build_start = time.perf_counter()
        inputs = workloads.build_inputs(workload, seed, plan)
        report = {"import_s": import_s, "setup_s": import_s + time.perf_counter() - build_start}
        if workload == "analyze-large":
            reqs = workloads.requests(workload, seed, plan)
            pass_start = time.perf_counter()
            errors = {req.label: workloads.run_inprocess(req, inputs)[1] for req in reqs}
            report["cold_s"] = time.perf_counter() - pass_start
            report["results"] = {
                req.label: [errors[req.label], None if errors[req.label] else checks.sha256_file(req.output)]
                for req in reqs
            }
    elif mode == "traced":
        store = tracing.SpanStore()
        tracer = tracing.Tracer(store)
        tracer.install()
        code = replimeta.cli.main(argv[2:])
        tracer.uninstall()
        with open(argv[1], "w", encoding="utf-8") as handle:
            json.dump(list(store.rows()), handle)
        report = {"import_s": import_s, "code": code}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
