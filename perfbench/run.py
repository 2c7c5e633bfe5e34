#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. The first run configures and builds
the benchmark and the qtenon libraries it links (Release) into
.bench_build/perfbench; later runs only rebuild what changed. Build
output goes to stderr; the benchmark's own output goes to stdout and
ends with one JSON line (see README.md). The exit code is the
benchmark's: nonzero when a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_REL = os.path.join(".bench_build", "perfbench")
BUILD = os.path.join(ROOT, BUILD_REL)
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("gd-sv16", "gd-mf64", "spsa-320", "daemon-mix")
# Scheduler workers and daemon clients: fixed, but never more than the
# CPUs this process may run on.
MAX_WORKERS = 4
RUN_TIMEOUT_S = 160


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; run from a full "
                 "checkout of the repository")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)
    workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    cmd = [BINARY, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workers", str(workers),
           "--out-dir", BUILD_REL]
    # The daemon digest depends on the client count, which is the
    # worker count; digests are recorded for one seed at 4 workers.
    if args.seed == digests["seed"] and workers == digests["workers"]:
        cmd += ["--expect-digest", digests["digests"][args.workload]]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
