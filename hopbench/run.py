#!/usr/bin/env python3
"""Builds the hopbench driver from source and runs one benchmark workload.

Run from the repository root:

    python3 hopbench/run.py --workload serving --seed 1 --seconds 10 --trace 0

The simulator library (src/) and the driver are built in Release with CMake
into $CARGO_TARGET_DIR/hopbench (default .bench_build/hopbench). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Simulated results are exact for a seed; their
digest is kept in the build directory and a later run of the same binary,
workload and seed that disagrees is reported as incorrect. A traced run (--trace 1)
writes its spans as Chrome trace-event JSON under the build directory.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wide-broadcast", "async-reduce", "serving", "churn")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hopbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cluster.h")):
        log("hopbench: simulator sources (src/) not found next to hopbench/")
        sys.exit(2)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "hopbench")


def host_facts(bdir):
    compiler = "?"
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
    except OSError:
        pass
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    first = version.stdout.splitlines()[0] if version.stdout else compiler
    return {"nproc": os.cpu_count(), "compiler": first, "build_type": "Release",
            "machine": platform.machine()}


def check_digest(bdir, binary, workload, seed, digest):
    """True unless an earlier run of this binary, workload and seed saw other
    simulated results."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(bdir, "digests.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    key = "%s:%s:%d" % (build_id, workload, seed)
    if key in known and known[key] != digest:
        log("hopbench: simulated results differ from an earlier run at this seed")
        return False
    known[key] = digest
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    log("hopbench host:", json.dumps(host_facts(bdir), sort_keys=True))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        out = os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))
        command += ["--trace-out", out]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("digest "):
        log("hopbench: driver failed (exit %d)" % proc.returncode)
        sys.exit(1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("hopbench: malformed result")
        sys.exit(1)
    digest = lines[-2].split()[1]
    if not check_digest(bdir, binary, args.workload, args.seed, digest):
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
