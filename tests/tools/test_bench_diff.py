#!/usr/bin/env python3
"""Row pairing check for tools/bench_diff.py and tools/bench_journal.py.

The fixture's `runs` rows repeat one fingerprint at every thread count;
only the candidate's 2-thread fleet row drifts (+50%). bench_diff must
diff each row against the row with the same thread count, so exactly
that one drift is reported and the unchanged scenario_fuzz report
passes; bench_journal must keep one history key per thread row.

Usage: test_bench_diff.py TOOLS_DIR FIXTURE_DIR
"""

import contextlib
import importlib.util
import io
import json
import os
import sys


def load(tools, name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(tools, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv):
    tools, fixture = argv[1], argv[2]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = load(tools, "bench_diff").main(
            ["bench_diff", os.path.join(fixture, "base"),
             os.path.join(fixture, "cand")])
    lines = out.getvalue().splitlines()
    print("\n".join(lines))
    problems = [line.strip() for line in lines if line.startswith("  ")]
    expected = ("BENCH_fleet.json.runs[87a39c7951c91e32/threads=2]"
                ".scenarios_per_sec:")
    diff_ok = (code == 1
               and "FAIL BENCH_fleet.json" in lines
               and "OK   BENCH_scenario_fuzz.json" in lines
               and len(problems) == 1
               and problems[0].startswith(expected))

    with open(os.path.join(fixture, "base", "BENCH_fleet.json")) as f:
        perf = load(tools, "bench_journal").flatten_report(json.load(f))["perf"]
    runs = sorted(key for key in perf if key.startswith("runs["))
    print("\n".join(runs))
    journal_ok = runs == [
        f"runs[87a39c7951c91e32/threads={t}].scenarios_per_sec"
        for t in (1, 2, 4)]

    ok = diff_ok and journal_ok
    print("PASS" if ok else "FAIL: thread rows are not paired by thread count")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
