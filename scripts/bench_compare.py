#!/usr/bin/env python3
"""Compares two perf trajectory files written by `bench_pairs.py --json`.

    python3 scripts/bench_compare.py A.json B.json

Each file holds, per workload, the change side's median and quartiles of
every metric from one alternating-pairs run. For every workload and metric
present in both files this prints A's and B's change medians, the B/A
ratio, and a note when B's median lies further from A's than A's own
interquartile distance (q3 - q1): "advisory: worse" or "advisory: better",
in the metric's direction. The notes are advisory only; the exit status is
0 whenever both files parse. The two runs may come from different hosts or
seeds (both are printed), so a note asks for a paired rerun, not a verdict.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        document = json.load(f)
    if document.get("format") != "hoplite-bench-pairs/1":
        sys.exit("bench_compare: %s is not a bench_pairs.py --json file" % path)
    return document["workloads"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="earlier trajectory file")
    parser.add_argument("b", help="later trajectory file")
    args = parser.parse_args()
    runs_a, runs_b = load(args.a), load(args.b)

    shared = sorted(set(runs_a) & set(runs_b))
    for name in sorted(set(runs_a) ^ set(runs_b)):
        print("%s: only in %s" % (name, args.a if name in runs_a else args.b))
    for workload in shared:
        run_a, run_b = runs_a[workload], runs_b[workload]
        print("\n%s: A seed %d, %d pairs of %g s; B seed %d, %d pairs of %g s"
              % (workload, run_a["seed"], run_a["pairs"], run_a["seconds"],
                 run_b["seed"], run_b["pairs"], run_b["seconds"]))
        print("%-28s %14s %14s %8s  %s" % ("metric", "A median", "B median", "B/A", "note"))
        for metric in sorted(set(run_a["metrics"]) & set(run_b["metrics"])):
            a = run_a["metrics"][metric]
            a_side, b_side = a["change"], run_b["metrics"][metric]["change"]
            ratio = b_side["median"] / a_side["median"] if a_side["median"] else float("nan")
            delta = b_side["median"] - a_side["median"]
            note = ""
            if abs(delta) > a_side["q3"] - a_side["q1"]:
                better = delta > 0 if a["higher_is_better"] else delta < 0
                note = "advisory: " + ("better" if better else "worse")
            print("%-28s %14.6g %14.6g %8.3f  %s"
                  % (metric, a_side["median"], b_side["median"], ratio, note))


if __name__ == "__main__":
    main()
