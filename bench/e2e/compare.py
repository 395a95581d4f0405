#!/usr/bin/env python3
"""Compares end-to-end results of a parent commit and a change.

  python3 bench/e2e/compare.py parent.jsonl change.jsonl

Each file holds one JSON line per run, as written by
`run.py --results FILE`. Runs of one workload are paired in file order, so
run the two commits in alternating pairs with the same seeds (see
README.md). For each workload and each end-to-end metric of
BENCHMARK.json the verdict is:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unchanged   neither of the above
  unresolved  fewer than 10 pairs, or a spread (interquartile range over
              median) wider than the bound on either side; with such a
              spread a metric is still unchanged when every change run
              reads better than every parent run, and regressed when
              every one reads worse by more than the bound

It also compares the share of failed trials (failed over attempted): a
higher share on the change, or a change run that failed its correctness
checks, is a regression. The exit code is 1 when anything regressed.
"""
import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):  # traced runs carry per-layer metrics
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Returns (verdict, detail) for paired parent/change values."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    worse = -sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    detail = "parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  %+.1f%%  wins %d/%d" % (
        p_med, p_q1, p_q3, c_med, c_q1, c_q3, 100.0 * (c_med - p_med) / p_med if p_med else 0.0,
        wins, pairs)
    if pairs < MIN_PAIRS:
        return "unresolved", detail + "  (fewer than %d pairs)" % MIN_PAIRS
    gain = (wins >= WIN_SHARE * pairs and sign * (c_med - p_med) > 0
            and abs(c_med - p_med) > p_q3 - p_q1)
    if gain:
        return "improved", detail
    if spread > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "unchanged", detail
        if max(sign * c for c in change) < min(sign * p for p in parent) and worse > bound:
            return "regressed", detail
        return "unresolved", detail + "  (spread %.1f%% > bound)" % (100.0 * spread)
    if worse > bound:
        return "regressed", detail
    return "unchanged", detail


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)

    regressed = False
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        n = min(len(parent), len(change))
        parent, change = parent[:n], change[:n]
        print("%s (%d pairs)" % (workload, n))
        if any(p["seed"] != c["seed"] for p, c in zip(parent, change)):
            print("  warning: paired runs used different seeds")
        for metric in metrics:
            name = metric["name"]
            p_values = [r["end_to_end"][name]["value"] for r in parent]
            c_values = [r["end_to_end"][name]["value"] for r in change]
            if n == 0:
                result, detail = "unresolved", "no runs on one side"
            else:
                result, detail = verdict(p_values, c_values, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            print("  %-22s %-10s %s" % (name, result, detail))
        p_fail, c_fail = failed_share(parent), failed_share(change)
        result = "regressed" if c_fail > p_fail else "unchanged"
        if not all(r["correct"] for r in change):
            result = "regressed"
            print("  a change run failed its correctness checks")
        regressed |= result == "regressed"
        print("  %-22s %-10s parent %.6g  change %.6g" % ("failed_trial_share", result,
                                                          p_fail, c_fail))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
