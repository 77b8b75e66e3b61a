#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (a CMake project that compiles the
library from src/) under .bench_build/perfbench, runs one workload and
prints the program's lines followed by one JSON object as the last line.
The JSON's metric names and units are checked against BENCHMARK.json:
end_to_end for untraced runs, per_layer for traced ones. Exits non-zero
without printing a result when the sources are missing, the build fails
or the output does not match; exits 1 after the result when an output
check of the workload failed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fullbatch-train", "serve-zipf", "ingest-churn")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-20000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, target)


def expected_metrics(trace):
    """[(name, unit)] the result must report, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def check_result(result, trace):
    """Validate the result against BENCHMARK.json, in its metric order.

    A traced run reports only the layers its workload exercises; the
    other per-layer metrics did no work and are reported as 0.
    """
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result), 3)
    if result["attempted"] < 1:
        fail("no operations attempted", 3)
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("metric %s has no numeric value" % name, 3)
    expected = expected_metrics(trace)
    if expected is None:
        return
    got = result["metrics"]
    units = dict(expected)
    extra = sorted(set(got) - set(units))
    wrong = sorted(n for n in got if n in units and got[n]["unit"] != units[n])
    missing = sorted(set(units) - set(got)) if not trace else []
    if extra or wrong or missing:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, wrong), 3)
    result["metrics"] = {
        name: got.get(name, {"value": 0, "unit": unit})
        for name, unit in expected}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the statistics self-test")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_stats_test")
        sys.exit(subprocess.run([binary]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S, 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark exited %d without a result" % proc.returncode, 3)
    check_result(result, args.trace)
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
