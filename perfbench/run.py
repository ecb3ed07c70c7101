#!/usr/bin/env python3
"""Build and run the SoV benchmark.

Usage (from the repo root):

  python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                           [--trace 0|1]
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later calls rebuild incrementally. The
arguments go unchanged to the benchmark binary, which checks them
strictly: bad arguments print usage and exit 2, passed on as is. The
binary prints its full report and, as the last stdout line, the result
JSON; this script checks that line against BENCHMARK.json before
passing it on. A failed build, run or result check exits 1 without a
result line.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
USAGE_EXIT = 2


def build(target):
    """Configure (once) and build @target; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_result(line, expected):
    """None if @line is a valid result carrying exactly @expected."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return "%s is not an integer" % key
    if result["attempted"] < 1:
        return "attempted < 1"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return "metrics %s differ from BENCHMARK.json %s" % (
            sorted(metrics), sorted(expected))
    for name, m in metrics.items():
        if m.get("unit") != expected[name]:
            return "unit of %s is %r, BENCHMARK.json says %r" % (
                name, m.get("unit"), expected[name])
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "value of %s is not a finite number" % name
    return None


def selftest():
    if not build("perfbench_selftest"):
        return 1
    rc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         os.path.join(HERE, "tests"), "-p", "test_*.py"])
    return 1 if rc or py.returncode else 0


def traced(argv):
    """Whether @argv (already accepted by the binary) asks for --trace 1."""
    for i, tok in enumerate(argv):
        if tok == "--trace=1" or (tok == "--trace" and
                                  argv[i + 1:i + 2] == ["1"]):
            return True
    return False


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    try:
        end_to_end, per_layer = contract()
    except (OSError, ValueError, KeyError) as e:
        sys.stderr.write("run.py: cannot read BENCHMARK.json: %s\n" % e)
        return 1
    if not build("perfbench"):
        sys.stderr.write("run.py: build failed\n")
        return 1
    cmd = [os.path.join(BUILD, "perfbench")] + argv
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode == USAGE_EXIT:
        return USAGE_EXIT
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("run.py: benchmark exited %d\n" % proc.returncode)
        return 1
    error = check_result(lines[-1], per_layer if traced(argv) else end_to_end)
    if error:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("run.py: bad result line: %s\n" % error)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
