#!/usr/bin/env python3
"""Build the benchmark harness and run one workload, or all of them.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-serial --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (the harness plus the
simulator library from src/) in Release mode under .bench_build/;
later runs only check that the build is current. Build output goes to
stderr. The harness prints a human-readable report and, as the last
line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. The exit code is the harness's: nonzero when any
output check failed.

`--workload all` runs every workload BENCHMARK.json lists, untraced and
then traced, and then the self-test; it exits nonzero if any of them
failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
RUN_TIMEOUT_S = 170

# The harness process running now, for the signal handler.
current = None


def build(build_dir):
    """Configure (once) and build the harness; False on failure."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]
    return subprocess.call(cmd, stdout=log, stderr=log) == 0


def run_harness(harness, args):
    """Run `harness <args> --workdir <fresh dir>`; its exit code."""
    global current
    workdir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    sys.stdout.flush()
    current = (subprocess.Popen([harness] + args + ["--workdir", workdir]),
               workdir)
    try:
        return current[0].wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        current[0].kill()
        current[0].wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    finally:
        current = None
        shutil.rmtree(workdir, ignore_errors=True)


def stop(signum, _frame):
    # The harness stops its own daemons on SIGTERM.
    if current is not None:
        proc, workdir = current
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(128 + signum)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="failure-accounting check under injected "
                             "transport faults")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    harness = os.path.join(build_dir, "perfbench_harness")

    def workload_run(name, trace):
        return ["run", "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--reference", os.path.join(HERE, "paper_reference.json")]

    if args.self_test:
        runs = [["self-test"]]
    elif args.workload == "all":
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        runs = [workload_run(n, t) for n in names for t in (0, 1)]
        runs.append(["self-test"])
    else:
        runs = [workload_run(args.workload, args.trace)]

    codes = [run_harness(harness, r) for r in runs]
    failed = sum(1 for c in codes if c != 0)
    if len(runs) > 1:
        print("perfbench: %d of %d runs failed" % (failed, len(runs)),
              file=sys.stderr)
    return next((c for c in codes if c != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
