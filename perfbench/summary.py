#!/usr/bin/env python3
"""Summarize result files of one commit: median, quartiles and spread.

    python3 perfbench/summary.py perfbench/results/*-trace0.json
    python3 perfbench/summary.py A/*.json --vs B/*.json

For each workload and metric it prints the median, the first and third
quartiles (`statistics.quantiles(values, n=4)`), and the spread, the
quartile distance as a share of the median, against the metric's bound in
BENCHMARK.json. "steady" means the spread is below a third of the bound,
"ok" within it. With `--vs`, it also prints how far the second set's
median is from the first's, as a share of the first, and checks that
distance in either direction, and the second set's spread, against the
same bound (the A/A check when both sets come from the same commit). Any
gated failure (the result line's `failed`) in either set also fails the
check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """((workload, trace) -> metric -> [values], (workload, trace) -> gated failures)."""
    by_workload = defaultdict(lambda: defaultdict(list))
    failures = defaultdict(int)
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        key = (record["workload"], record["trace"])
        metrics = by_workload[key]
        for name, entry in record["metrics"].items():
            metrics[name].append(entry["value"])
        metrics["error_ratio"].append(record["error_ratio"])
        failures[key] += record["failed"]
    return by_workload, failures


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(a_med, b_med, better):
    """How much worse b is than a, as a share of a (negative: better)."""
    if a_med == 0:
        return 0.0
    change = (b_med - a_med) / a_med
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--vs", nargs="+", default=None, help="a second set of result files")
    args = parser.parse_args(argv)
    limits = bounds()
    first, failures = load(args.files)
    second = None
    if args.vs:
        second, failures_b = load(args.vs)
        for key, count in failures_b.items():
            failures[key] += count
    worst = "steady"
    for key in sorted(first):
        workload, trace = key
        print(f"{workload} (trace {trace}): {failures[key]} gated failures")
        if failures[key]:
            worst = "OVER"
        print(f"  {'metric':32s} {'runs':>4s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        for name, values in sorted(first[key].items()):
            med, q1, q3, spread = stats(values)
            bound, better = limits.get(name, (None, "lower"))
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread < bound / 3 else "ok" if spread <= bound else "OVER"
                if verdict == "OVER" or (verdict == "ok" and worst == "steady"):
                    worst = verdict
            if second is not None and name in second.get(key, {}):
                med_b, _, _, spread_b = stats(second[key][name])
                change = worse_by(med, med_b, better)
                flag = ""
                if bound is not None:
                    flag = " ok" if abs(change) <= bound and spread_b <= bound else " DIFFERS"
                verdict += f"  vs {med_b:.6g} (spread {spread_b:.3f}): {change:+.3f}{flag}"
                if flag == " DIFFERS":
                    worst = "OVER"
            shown_bound = f"{bound:6.3f}" if bound is not None else "     -"
            print(f"  {name:32s} {len(values):4d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {shown_bound}  {verdict}")
    print(f"overall: {worst}")
    return 1 if worst == "OVER" else 0


if __name__ == "__main__":
    sys.exit(main())
