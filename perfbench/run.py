#!/usr/bin/env python3
"""Build and run ksim's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload model_grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The benchmark and the ksim libraries are built
from source in Release mode under .bench_build/perfbench, then the benchmark
binary runs the workload; its last stdout line is the result object.
--self-test builds and runs the unit tests of the benchmark's statistics.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no ksim sources next to perfbench/ (expected src/CMakeLists.txt)")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description="Build and run ksim's benchmark.")
    ap.add_argument("--workload", choices=["model_grid", "jit_jobs", "daemon"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        if not build("perfbench_stats_test"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_stats_test")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if not build("perfbench"):
        log("build failed")
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
