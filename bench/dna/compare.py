#!/usr/bin/env python3
"""Compare two bench_dna run sets: a parent and a change, from alternating runs.

    python3 bench/dna/compare.py PARENT.json CHANGE.json [--benchmark BENCHMARK.json]
    python3 bench/dna/compare.py --selftest

A run set is what `run.py --out FILE` writes; only untraced runs count.
Runs pair up per workload in order (the i-th parent run with the i-th change
run). For each workload x end-to-end metric it prints each side's median and
quartiles, the change's win share over the pairs (ties count for neither),
and a verdict:

  improved    the change wins at least 9/10 of the pairs and its median beats
              the parent's by more than the parent's interquartile range
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  a side's interquartile range exceeds the bound (as a share of
              its median), unless every change run beats every parent run
  unchanged   otherwise

It also prints each side's failed-operation share. Exit status 1 when any
metric regressed. Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """The verdict and win share of one metric's paired runs."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gain = sign * (c_med - p_med)  # > 0: the change is better
    spread = max((p3 - p1) / abs(p_med) if p_med else 0,
                 (c3 - c1) / abs(c_med) if c_med else 0)
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if win_share >= 0.9 and gain > p3 - p1:
        return "improved", win_share
    if p_med and -gain / abs(p_med) > bound:
        return "regressed", win_share
    if spread > bound and not every_run_better:
        return "unresolved", win_share
    return "unchanged", win_share


def by_workload(run_set):
    runs = {}
    for run in run_set["runs"]:
        if not run.get("traced"):
            runs.setdefault(run["workload"], []).append(run)
    return runs


def failed_share(run_set):
    attempted = sum(run["attempted"] for run in run_set["runs"])
    failed = sum(run["failed"] for run in run_set["runs"])
    return failed / attempted if attempted else 0


def compare(parent_set, change_set, benchmark):
    """Rows of (workload, metric, parent quartiles, change quartiles,
    win share, verdict)."""
    parent_runs, change_runs = by_workload(parent_set), by_workload(change_set)
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        parent, change = parent_runs.get(workload, []), change_runs.get(workload, [])
        if not parent or not change:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            p = [run["metrics"][name]["value"] for run in parent]
            c = [run["metrics"][name]["value"] for run in change]
            result, win_share = verdict(p, c, metric["better"], metric["bound"])
            rows.append((workload, name, quartiles(p), quartiles(c), win_share, result))
    return rows


def report(parent_set, change_set, benchmark):
    rows = compare(parent_set, change_set, benchmark)
    print(f"{'workload':14} {'metric':10} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>5}  verdict")
    for workload, name, p, c, win_share, result in rows:
        print(f"{workload:14} {name:10} {p[1]:12.6g} [{p[0]:.6g}, {p[2]:.6g}]".ljust(60)
              + f"{c[1]:12.6g} [{c[0]:.6g}, {c[2]:.6g}]".ljust(34)
              + f"{win_share:5.2f}  {result}")
    print(f"failed-operation share: parent {failed_share(parent_set):.3g}, "
          f"change {failed_share(change_set):.3g}")
    return rows


def selftest():
    """Verdicts on a synthetic fixture with one metric per verdict."""
    benchmark = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "faster", "better": "lower", "bound": 0.1},
            {"name": "slower", "better": "lower", "bound": 0.1},
            {"name": "noisy", "better": "higher", "bound": 0.1},
            {"name": "same", "better": "higher", "bound": 0.1},
        ],
    }
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    series = {
        "faster": (base, [v * 0.8 for v in base]),
        "slower": (base, [v * 1.2 for v in base]),
        "noisy": ([60, 140, 100, 70, 130, 90, 110, 80, 120, 100],
                  [65, 135, 105, 75, 125, 95, 115, 85, 120, 95]),
        "same": (base, list(reversed(base))),
    }

    def run_set(side):
        return {"runs": [
            {"workload": "w", "traced": False, "attempted": 10, "failed": 0,
             "metrics": {name: {"value": values[side][i]}
                         for name, values in series.items()}}
            for i in range(10)]}

    want = {"faster": "improved", "slower": "regressed", "noisy": "unresolved",
            "same": "unchanged"}
    got = {row[1]: row[5] for row in compare(run_set(0), run_set(1), benchmark)}
    ok = got == want
    print("compare.py selftest:", "ok" if ok else f"FAILED: got {got}, want {want}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.parent or not args.change:
        parser.error("PARENT and CHANGE run sets are required")
    benchmark = json.loads(Path(args.benchmark).read_text())
    rows = report(json.loads(Path(args.parent).read_text()),
                  json.loads(Path(args.change).read_text()), benchmark)
    return 1 if any(row[5] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
