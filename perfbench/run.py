#!/usr/bin/env python3
"""Build the perfbench driver from source and run one benchmark run.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the emulator library and the driver
under .bench_build/perfbench (RelWithDebInfo, like the repository's default
build); later calls only rebuild what changed. Build output goes to stderr.
The driver's output is passed through, so the last line of standard output
is the result object. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# The traced binary counts allocations; the untraced one keeps the
# standard allocator so the end-to-end timings carry no counting cost.
DRIVERS = {0: os.path.join(BUILD, "perfbench"),
           1: os.path.join(BUILD, "perfbench_trace")}
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"emulator sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD, "-j", BUILD_JOBS]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    run = subprocess.run(
        [DRIVERS[args.trace], "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode

    # The result line must carry exactly the metrics BENCHMARK.json lists.
    result = json.loads(run.stdout.strip().splitlines()[-1])
    got = list(result["metrics"])
    want = expected_metrics(args.trace == 1)
    if got != want:
        print(f"perfbench: driver reported {got}, BENCHMARK.json lists {want}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
