"""Output checks: golden digests, cross-checks between outputs, byte identity.

Every request writes one output file. Its sha256 is compared against the
golden digest recorded for the plan and seed in ``goldens.json`` when there
is one, and otherwise against the digest the first pass of the run
produced, so repeated passes must be byte-identical. A recording made on
another ``fingerprint()`` is still used: a digest that differs then fails
the run, and the message names both fingerprints. Cross-checks run on every
seed: they tie the numbers of different requests together without needing a
recorded answer.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import sys
from importlib import metadata

from workloads import Plan, Request, expected_csv_rows

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def fingerprint() -> dict[str, str | None]:
    """What output bytes may depend on besides the program and its inputs.

    numpy picks SIMD loops (log, sort) by CPU feature at run time, and their
    last bits may differ between feature sets, so the enabled features count.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__

        enabled = ",".join(sorted(name for name, on in __cpu_features__.items() if on))
        simd = hashlib.sha256(enabled.encode()).hexdigest()[:16]
    except ImportError:
        simd = None
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "machine": platform.machine(),
        "simd": simd,
    }


def load_goldens(workload: str, seed: int, plan: Plan) -> tuple[dict[str, str] | None, str]:
    """Golden digests for this run, or None, with a status for the run record."""
    try:
        with open(GOLDENS_PATH, "r", encoding="utf-8") as handle:
            goldens = json.load(handle)
    except FileNotFoundError:
        return None, "goldens.json missing"
    if goldens["plan"] != plan.name:
        return None, f"goldens recorded for plan {goldens['plan']!r}, running {plan.name!r}"
    digests = goldens["digests"].get(workload, {}).get(str(seed))
    if digests is None:
        return None, f"seed {seed} has no recorded digests"
    if goldens["fingerprint"] != fingerprint():
        return digests, (f"golden from another fingerprint: recorded with "
                         f"{goldens['fingerprint']}, running {fingerprint()}")
    return digests, "golden"


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _analyze_vs_bounds(analyze_path: str, bounds_path: str) -> list[str]:
    analyze = _load_json(analyze_path)["replicability"]
    bounds = _load_json(bounds_path)
    rows = {row["u"]: row for row in bounds["table"]}
    problems = []
    for side in ("u_max_left", "u_max_right"):
        if analyze[side] != bounds[side]:
            problems.append(f"{side}: analyze {analyze[side]} != bounds {bounds[side]}")
    row = rows[2]
    expected = min(1.0, 2.0 * min(row["r_left"], row["r_right"]))
    if analyze["r_value"] != expected:
        problems.append(f"r_value {analyze['r_value']!r} != 2 min(r_left, r_right) at u=2 {expected!r}")
    pc = analyze["partial_conjunction"]
    row = rows[pc["u"]]
    if (pc["r_left"], pc["r_right"]) != (row["r_left"], row["r_right"]):
        problems.append(f"r_left/r_right at u={pc['u']} differ between analyze and bounds")
    return [f"{os.path.basename(analyze_path)} vs {os.path.basename(bounds_path)}: {p}" for p in problems]


def _power_csv(path: str, expected_rows: int) -> list[str]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    name = os.path.basename(path)
    if not rows or rows[0] != ["param", "test", "rate", "mc_se", "replications", "seed"]:
        return [f"{name}: bad header"]
    if len(rows) - 1 != expected_rows:
        return [f"{name}: {len(rows) - 1} data rows, expected {expected_rows}"]
    for row in rows[1:]:
        rate = float(row[2])
        if not 0.0 <= rate <= 1.0:
            return [f"{name}: rate {rate} outside [0, 1]"]
    return []


def _fe_result(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        values = dict(line.split("=", 1) for line in handle.read().split())
    r_left, r_right, r = (float(values[k]) for k in ("r_left", "r_right", "r"))
    if not (0.0 <= r_left <= 1.0 and 0.0 <= r_right <= 1.0):
        return [f"{os.path.basename(path)}: directional p-values outside [0, 1]"]
    if r != min(1.0, 2.0 * min(r_left, r_right)):
        return [f"{os.path.basename(path)}: r != 2 min(r_left, r_right)"]
    return []


def cross_check(workload: str, reqs: list[Request]) -> dict[str, list[str]]:
    """Problems found in one pass's outputs, keyed by the request they fail."""
    by_label = {req.label: req for req in reqs}
    problems: dict[str, list[str]] = {}

    def run(label: str, check, *args) -> None:
        try:
            found = check(*args)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found = [f"{label}: unreadable output ({type(exc).__name__}: {exc})"]
        if found:
            problems.setdefault(label, []).extend(found)

    for req in reqs:
        if not os.path.exists(req.output) or os.path.getsize(req.output) == 0:
            problems.setdefault(req.label, []).append(f"{req.label}: no output")
    if workload in ("cli-small", "analyze-large"):
        for label, req in by_label.items():
            if label.endswith("/bounds-json"):
                analyze = by_label[label.replace("/bounds-json", "/analyze-json")]
                run(label, _analyze_vs_bounds, analyze.output, req.output)
            elif label.endswith("/analyze-svg"):
                run(label, _starts_with, req.output, "<svg")
            elif label.startswith("fe_r_value/"):
                run(label, _fe_result, req.output)
    elif workload == "simulate-grid":
        for req in reqs:
            run(req.label, _power_csv, req.output, expected_csv_rows(req.label))
    return problems


def _starts_with(path: str, prefix: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as handle:
        head = handle.read(len(prefix) + 64).lstrip()
    if not head.startswith(prefix) and not head.startswith("<?xml"):
        return [f"{os.path.basename(path)}: does not start with {prefix!r}"]
    return []


class OutputChecker:
    """Checks the outputs of a run's requests and keeps its failure tally.

    A digest is compared with the golden one for its request, or, when the
    seed has none, with the first digest the request produced in this run.
    """

    def __init__(self, workload: str, seed: int, plan: Plan, reqs: list[Request]):
        goldens, self.golden_status = load_goldens(workload, seed, plan)
        self.reference_source = "golden" if goldens is not None else "first pass"
        self.reference: dict[str, str] = dict(goldens or {})
        self.workload = workload
        self.reqs = reqs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._cross_checked = False

    def record(self, label: str, error: str | None, digest: str | None) -> None:
        """Count one finished request; its error or a digest mismatch fails it."""
        self.attempted += 1
        problem = None if error is None else f"{label}: {error.strip()}"
        if problem is None and digest is not None:
            expected = self.reference.setdefault(label, digest)
            if digest != expected:
                problem = (f"{label}: sha256 {digest[:16]} differs from the "
                           f"{self.reference_source} digest {expected[:16]}")
                if self.reference_source == "golden" and self.golden_status != "golden":
                    problem += f" ({self.golden_status})"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
                print(f"bench: check failed: {problem}", file=sys.stderr)

    def record_pass(self, errors: dict[str, str | None]) -> None:
        """Count the requests of a pass that just ran, reading their outputs.

        The first pass recorded is also cross-checked; later passes must
        match its digests byte for byte.
        """
        crossed: dict[str, list[str]] = {}
        if not self._cross_checked:
            crossed = cross_check(self.workload, self.reqs)
            self._cross_checked = True
        for req in self.reqs:
            if req.label not in errors:
                continue
            error = errors[req.label]
            digest = None
            if error is None:
                try:
                    digest = sha256_file(req.output)
                except OSError as exc:
                    error = f"output unreadable: {exc}"
            if error is None and req.label in crossed:
                error = "; ".join(crossed[req.label])
            self.record(req.label, error, digest)
