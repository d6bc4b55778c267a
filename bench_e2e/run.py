#!/usr/bin/env python3
"""Builds and runs bench_e2e for one workload; prints one JSON result line.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench_e2e/run.py --quick

Run from the root of a checkout. The binary is built from source into
.bench_build/ (CMake, Release) on first use. The last line of standard
output is {"correct", "attempted", "failed", "metrics"}: every end_to_end
metric of BENCHMARK.json with --trace 0, every per_layer metric with
--trace 1. The full report, with sample counts and run context, is kept in
.bench_build/results/BENCH_<workload>.json (and a Chrome trace of the traced
phase in trace_<workload>.json).

Python 3 standard library only.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "bench_e2e")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_bounded(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers spawned by the build included) and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out, err


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no MeLoPPR sources next to %s; run from a full checkout" % HERE)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                      "-j", str(max(1, min(4, os.cpu_count() or 1)))])
        for step in steps:
            code, _, _ = run_bounded(step, BUILD_TIMEOUT_S, stdout=log,
                                     stderr=subprocess.STDOUT)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (%s); log in %s" % (" ".join(step),
                                                      log_path))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_sha():
    # Only a checkout that is itself a git repository has a SHA to report;
    # never search parent directories for one.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="all workloads, short phases, checks only")
    parser.add_argument("--json-out",
                        help="also copy the full report to this path")
    args = parser.parse_args()

    bench = load_benchmark()
    build()
    if args.quick:
        code, _, _ = run_bounded([BINARY, "--quick"], RUN_TIMEOUT_S)
        sys.exit(code)

    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of: " + ", ".join(names))
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    report_path = os.path.join(RESULTS_DIR, "BENCH_%s.json" % args.workload)
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--out", report_path, "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(RESULTS_DIR, "trace_%s.json" % args.workload)]
    code, out, _ = run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                               text=True)
    sys.stdout.write(out)
    if not os.path.isfile(report_path):
        fail("bench_e2e exited %d without a report" % code)
    with open(report_path) as f:
        report = json.load(f)
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(report, f, indent=1)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            fail("metric %s missing or without enough samples" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    info = report["info"]
    print(json.dumps({"correct": bool(info["correct"]),
                      "attempted": int(info["attempted"]),
                      "failed": int(info["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
