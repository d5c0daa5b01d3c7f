"""Compare two ``run.py --out`` files metric by metric, workload by workload.

    python3 bench/compare.py A.json B.json      (A: parent, B: change)

Each metric's bound and direction come from ``BENCHMARK.json``.  One row
per (workload, metric) with both medians and quartiles, and a verdict:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``REGRESSION`` — it is, and either the spread of both sides is within
  the bound or every B sample is worse than every A sample;
* ``unresolved`` — the spread of a side exceeds the bound, so the two
  medians cannot be told apart at that bound (unless every B sample is
  better than every A sample, which is ``ok``).

Two numbers the driver's contract cannot carry are compared here with
absolute bounds of the benchmark's own: ``tx_failed_share`` (it is 0 on
a healthy run; any rise fails) and ``decision_gap_max_rounds`` (a whole
number that one seed can move by half its value; it may not rise at all
between two runs of a deterministic workload on one seed, and by at
most 2 rounds otherwise).

Exits non-zero on a regression, a higher ``tx_failed_share`` or a
longer decision gap.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import measures

REPO_DIR = Path(__file__).resolve().parent.parent


def worse_by(a: float, b: float, better: str) -> float:
    """Share of ``a`` by which ``b`` is worse (negative: better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``ok`` / ``REGRESSION`` / ``unresolved`` for one (workload, metric)."""
    sign = 1 if better == "lower" else -1
    a_values = [sign * v for v in a["values"]]
    b_values = [sign * v for v in b["values"]]
    all_worse = min(b_values) > max(a_values)
    all_better = max(b_values) < min(a_values)
    noisy = max(measures.spread(a), measures.spread(b)) > bound
    if worse_by(a["median"], b["median"], better) > bound and (all_worse or not noisy):
        return "REGRESSION"
    if noisy and not all_better:
        return "unresolved"
    return "ok"


def compare(a_report: dict, b_report: dict, contract: dict) -> tuple[list[str], bool]:
    """The printed rows and whether anything failed."""
    rows, failed = [], False
    header = (
        f"{'workload':22s} {'metric':26s} {'A median':>11s} {'[q1, q3]':>23s} "
        f"{'B median':>11s} {'[q1, q3]':>23s} {'worse by':>9s} {'bound':>6s}  verdict"
    )
    rows.append(header)
    for name, a_load in a_report["workloads"].items():
        b_load = b_report["workloads"].get(name)
        if b_load is None:
            rows.append(f"{name:22s} missing from B")
            failed = True
            continue
        for metric in contract["end_to_end"]:
            a, b = a_load["metrics"][metric["name"]], b_load["metrics"][metric["name"]]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            failed |= outcome == "REGRESSION"
            rows.append(
                f"{name:22s} {metric['name']:26s} {a['median']:11.4f} "
                f"[{a['q1']:10.4f},{a['q3']:10.4f}] {b['median']:11.4f} "
                f"[{b['q1']:10.4f},{b['q3']:10.4f}] "
                f"{worse_by(a['median'], b['median'], metric['better']):+9.2%} "
                f"{metric['bound']:6.2f}  {outcome}"
            )
        a_gap = a_load["metrics"]["decision_gap_max_rounds"]["median"]
        b_gap = b_load["metrics"]["decision_gap_max_rounds"]["median"]
        same_inputs = a_load["deterministic"] and a_load["seed"] == b_load["seed"]
        allowed = 0 if same_inputs else 2
        longer = b_gap > a_gap + allowed
        failed |= longer
        rows.append(
            f"{name:22s} {'decision_gap_max_rounds':26s} {a_gap:11.4f} {'':23s} {b_gap:11.4f} "
            f"{'':23s} {b_gap - a_gap:+9.0f} {allowed:6d}  {'LONGER' if longer else 'ok'}"
        )
        a_share = a_load["failed"] / a_load["attempted"]
        b_share = b_load["failed"] / b_load["attempted"]
        higher = b_share > a_share
        failed |= higher
        rows.append(
            f"{name:22s} {'tx_failed_share':26s} {a_share:11.4f} {'':23s} {b_share:11.4f} "
            f"{'':23s} {'':9s} {0:6.2f}  {'HIGHER' if higher else 'ok'}"
        )
        for side, load in (("A", a_load), ("B", b_load)):
            if load["tainted_samples"]:
                rows.append(f"{name:22s} {side}: {load['tainted_samples']} tainted sample(s) re-run")
            for problem in load["problems"]:
                rows.append(f"{name:22s} {side}: PROBLEM {problem}")
                failed = True
        if a_load["seed"] == b_load["seed"] and a_load["digests"] != b_load["digests"]:
            # Informative between two commits, a defect between two sets of one commit.
            rows.append(f"{name:22s} decision digests differ between A and B")
        if a_load["deterministic"] and a_load["layers"] and b_load["layers"]:
            moved = [
                key
                for key, value in a_load["layers"].items()
                if key.endswith(".calls") and b_load["layers"][key] != value
            ]
            if moved:
                rows.append(f"{name:22s} call counts differ: {', '.join(moved)}")
    return rows, failed


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a_report, b_report = (json.loads(Path(path).read_text()) for path in sys.argv[1:])
    contract = json.loads((REPO_DIR / "BENCHMARK.json").read_text())
    rows, failed = compare(a_report, b_report, contract)
    print("\n".join(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
