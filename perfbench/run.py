#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the measuring program (perfbench/CMakeLists.txt) from the
simulator sources of this checkout, writes the workload's seeded
inputs from one process and measures them from another, and relays
the measuring process's output. The last line printed is the JSON
result; every metric it names is declared in BENCHMARK.json.
Exits non-zero, printing no result, when the build, the input
generation or the measurement fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".perfbench_build")
WORK = os.path.join(ROOT, ".perfbench_work")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; compiler scratch
    files stay inside the checkout."""
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        done = subprocess.run(step, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def declared_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    work = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed,
                                            os.getpid()))
    os.makedirs(work)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", work]
        gen = subprocess.run([BINARY, "gen"] + common,
                             timeout=GEN_TIMEOUT_S)
        if gen.returncode != 0:
            fail("input generation failed")
        run = subprocess.run(
            [BINARY, "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, universal_newlines=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        fail("timed out: " + " ".join(e.cmd))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.returncode != 0:
        fail("measurement failed with exit code %d" % run.returncode)

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the measuring program printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys: %s" % sorted(result))
    want = declared_metrics(args.trace == 1)
    if sorted(result["metrics"]) != sorted(want):
        fail("result metrics do not match BENCHMARK.json")
    print("\n".join(lines))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
