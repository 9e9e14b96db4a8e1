#!/usr/bin/env python3
"""Compares sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py RUNS_DIR             # one set
    python3 perfbench/compare.py BASE_DIR NEW_DIR     # two sets

A set is a directory of results records written by perfbench/run.py
(--results DIR). For each workload and end-to-end metric the untraced runs
give a median and quartiles (statistics.quantiles, n=4); the spread is the
interquartile distance over the median. A metric is

  unresolved  when the spread of a set exceeds the metric's bound;
  worse       when NEW's median is worse than BASE's by more than the bound
              (as a share of BASE's median).

Registry counters must repeat exactly: every record of one (workload, seed)
pair — traced or not, in either set — must report the same counters.
Traced runs also print the tracing overhead: each traced run's end-to-end
numbers minus the untraced median of its set.

Exits 1 when anything is unresolved, worse or mismatched, else 0.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path) as f:
            records.append(json.load(f))
    if not records:
        sys.exit("compare: no results records in %s" % directory)
    return records


def stats(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def untraced(records, workload, metric):
    return [r["e2e"][metric] for r in records
            if r["provenance"]["workload"] == workload
            and not r["provenance"]["traced"] and metric in r["e2e"]]


def check_counters(sets):
    """Records of one (workload, seed) must agree on every counter."""
    seen, problems = {}, []
    for label, records in sets:
        for r in records:
            key = (r["provenance"]["workload"], r["provenance"]["seed"])
            if key not in seen:
                seen[key] = (label, r["counters"])
            elif r["counters"] != seen[key][1]:
                problems.append("counters differ for %s seed %d (%s vs %s)"
                                % (key[0], key[1], seen[key][0], label))
    return problems


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = [(d, load(d)) for d in argv[1:]]
    workloads = [w["name"] for w in spec["workloads"]]
    flags = check_counters(sets)

    header = "%-8s %-17s %5s %12s %12s %12s %7s %6s  %s" % (
        "workload", "metric", "runs", "median", "q1", "q3", "spread",
        "bound", "verdict")
    print(header)
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for label, records in sets:
                values = untraced(records, workload, name)
                if not values:
                    continue
                median, q1, q3, spread = stats(values)
                medians.append(median)
                verdict = "ok"
                if spread > bound:
                    verdict = "unresolved"
                    flags.append("%s %s unresolved in %s" %
                                 (workload, name, label))
                print("%-8s %-17s %5d %12.6g %12.6g %12.6g %7.4f %6.3f  %s"
                      % (workload, name, len(values), median, q1, q3, spread,
                         bound, verdict))
            if len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / abs(medians[0])
                worse = -change if metric["better"] == "higher" else change
                verdict = "worse" if worse > bound else "within bound"
                if worse > bound:
                    flags.append("%s %s worse by %.1f%%" %
                                 (workload, name, 100 * worse))
                print("%-8s %-17s change %+.2f%% of base median: %s" %
                      (workload, name, 100 * change, verdict))

    for label, records in sets:
        for r in records:
            p = r["provenance"]
            if not p["traced"]:
                continue
            parts = []
            for metric in spec["end_to_end"]:
                values = untraced(records, p["workload"], metric["name"])
                if values and metric["name"] in r["e2e"]:
                    parts.append("%s %+.4g" % (
                        metric["name"],
                        r["e2e"][metric["name"]] - statistics.median(values)))
            if parts:
                print("trace overhead %s seed %d (traced - untraced median): "
                      "%s" % (p["workload"], p["seed"], ", ".join(parts)))

    for flag in flags:
        print("FLAG: " + flag)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
