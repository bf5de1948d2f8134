#!/usr/bin/env python3
"""Runs two hopbench binaries in alternating pairs and compares their metrics.

    python3 scripts/bench_pairs.py PARENT_BIN CHANGE_BIN --workload W --seed S \\
        --pairs N --seconds T [--trace 0|1] [--json FILE]

Each pair runs both binaries once on the same workload and seed; the order
alternates between pairs so drift on a shared host hits both sides alike.
Simulated results must not differ: the script fails (exit 1) if any run's
`digest` line differs from the first run's, or if a run fails. For every
metric of the final JSON line (end-to-end with --trace 0, per-layer with
--trace 1) it prints each side's median and quartiles, the change/parent
median ratio, and the number of pairs the change wins (strictly better in
the metric's direction, from BENCHMARK.json; lower is better otherwise).

With --json FILE the same statistics are also written to FILE, under the
workload's name (with ":trace" appended for --trace 1): a run under another
key is merged into an existing file, a rerun under the same key replaces
its entry. Such a file is one point
of the perf trajectory; scripts/bench_compare.py compares two of them.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def directions():
    """Metric name -> True when higher is better."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"] == "higher"
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quantile(sorted_values, q):
    """Linear-interpolated quantile of an already sorted list."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run(binary, args):
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("digest "):
        sys.stderr.write(proc.stderr)
        sys.exit("bench_pairs: %s failed (exit %d)" % (binary, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("bench_pairs: %s reported correct=%s failed=%s"
                 % (binary, result["correct"], result["failed"]))
    return lines[-2].split()[1], {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="hopbench binary built from the parent commit")
    parser.add_argument("change", help="hopbench binary built from the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="FILE", help="also write the statistics to FILE")
    args = parser.parse_args()

    samples = {"parent": [], "change": []}
    digest = None
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            d, metrics = run(getattr(args, side), args)
            if digest is None:
                digest = d
            elif d != digest:
                sys.exit("bench_pairs: pair %d %s digest %s differs from %s" % (i, side, d, digest))
            samples[side].append(metrics)
        print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr, flush=True)

    higher = directions()
    print("workload %s seed %d: %d pairs of %g s, digest %s (identical in every run)"
          % (args.workload, args.seed, args.pairs, args.seconds, digest))
    print("%-28s %30s %30s %8s %6s" % ("metric", "parent median [q1, q3]",
                                       "change median [q1, q3]", "ratio", "wins"))
    metrics = {}
    for name in samples["parent"][0]:
        stats = {}
        for side in ("parent", "change"):
            values = sorted(m[name] for m in samples[side])
            stats[side] = [quantile(values, q) for q in (0.5, 0.25, 0.75)]
        better = (lambda c, p: c > p) if higher.get(name, False) else (lambda c, p: c < p)
        wins = sum(better(c[name], p[name]) for p, c in zip(samples["parent"], samples["change"]))
        ratio = stats["change"][0] / stats["parent"][0] if stats["parent"][0] else None
        cells = ["%.6g [%.6g, %.6g]" % tuple(stats[side]) for side in ("parent", "change")]
        print("%-28s %30s %30s %8.3f %3d/%d" % (name, cells[0], cells[1],
                                                float("nan") if ratio is None else ratio,
                                                wins, args.pairs))
        metrics[name] = {side: dict(zip(("median", "q1", "q3"), stats[side]))
                         for side in ("parent", "change")}
        metrics[name].update(ratio=ratio, wins=wins,
                             higher_is_better=higher.get(name, False))
    if args.json:
        write_json(args, digest, metrics)


def write_json(args, digest, metrics):
    """Merges this run's statistics into args.json under the workload name."""
    try:
        with open(args.json) as f:
            document = json.load(f)
    except (OSError, ValueError):
        document = {"format": "hoplite-bench-pairs/1", "workloads": {}}
    key = args.workload + (":trace" if args.trace else "")
    document["workloads"][key] = {
        "seed": args.seed, "pairs": args.pairs, "seconds": args.seconds,
        "trace": args.trace, "digest": digest, "metrics": metrics}
    with open(args.json, "w") as f:
        json.dump(document, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
