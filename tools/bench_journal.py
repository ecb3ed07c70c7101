#!/usr/bin/env python3
"""Per-commit bench history journal.

bench_diff.py answers "did THIS change regress the committed
baseline?"; the journal answers the longitudinal question — how every
gated number has moved across the last N commits, and whether the
current head drifted against the entry before it.

The journal is a JSON-lines file: one line per `append` invocation,
holding the commit id, a wall timestamp, and a flattened snapshot of
every BENCH_*.json passed in — gate verdicts plus the named
performance values bench_diff.py tracks (latency / throughput /
availability / *_ms / *_hz / *per_sec keys from the meta block and
row tables; wall-clock keys are machine noise and are never
journalled). Append-only and line-oriented, so concurrent CI lanes
can't corrupt more than their own line and `git log`-style tooling
can tail it.

Subcommands:
    append  JOURNAL REPORT...  [--commit SHA]
        Append one entry. --commit defaults to `git rev-parse HEAD`
        of the current directory, falling back to "unknown".
    report  JOURNAL  [--fail-on-drift] [--tolerance 0.10] [--last N]
        Print per-bench history of the journalled values over the
        last N entries (default 10) and flag drift between the two
        most recent entries: gate flips pass -> fail always fail the
        report; perf keys moving more than --tolerance fail it only
        under --fail-on-drift.
    selftest
        Run the built-in behavioral checks (used by ctest).

Exit codes: 0 OK, 1 drift/gate-flip under the flags above, 2 usage or
unreadable input.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

PERF_SUFFIXES = ("_ms", "_hz", "per_sec")
LABEL_KEYS = ("fault", "scenario", "policy", "mode", "preset", "stack",
              "tenant", "name")
# Identifying numeric row fields: the fleet sweeps repeat one
# fingerprint at every thread count (see tools/bench_diff.py).
NUMERIC_LABEL_KEYS = ("threads",)


def is_perf_key(key):
    lowered = key.lower()
    if "wall" in lowered:
        return False
    if ("latency" in lowered or "throughput" in lowered
            or "availability" in lowered or "ttfr" in lowered
            or "fairness" in lowered):
        return True
    return lowered.endswith(PERF_SUFFIXES)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def row_label(row, index):
    parts = [row[key] for key in LABEL_KEYS
             if isinstance(row.get(key), str)]
    if not parts:
        parts = [value for value in row.values()
                 if isinstance(value, str)][:1]
    parts += [f"{key}={row[key]}" for key in NUMERIC_LABEL_KEYS
              if is_number(row.get(key))]
    return "/".join(parts) if parts else f"#{index}"


def flatten_report(report):
    """One report -> {"gates": {name: bool}, "perf": {path: number}}."""
    gates = {g["name"]: bool(g.get("pass"))
             for g in report.get("gates", [])}
    perf = {}
    for key, value in report.get("meta", {}).items():
        if is_perf_key(key) and is_number(value):
            perf[f"meta.{key}"] = value
    for table, rows in sorted(report.get("rows", {}).items()):
        for i, row in enumerate(rows):
            label = row_label(row, i)
            for key, value in row.items():
                if is_perf_key(key) and is_number(value):
                    perf[f"{table}[{label}].{key}"] = value
    return {"gates": gates, "perf": perf,
            "pass": bool(report.get("pass")),
            "smoke": bool(report.get("smoke"))}


def git_head():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_journal(path):
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return entries


def cmd_append(args):
    entry = {"commit": args.commit or git_head(),
             "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "reports": {}}
    for path in args.reports:
        try:
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"bench_journal: unreadable report {path}: {exc}",
                  file=sys.stderr)
            return 2
        entry["reports"][os.path.basename(path)] = flatten_report(report)
    if not entry["reports"]:
        print("bench_journal: no reports to append", file=sys.stderr)
        return 2
    with open(args.journal, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"journalled {len(entry['reports'])} report(s) at "
          f"{entry['commit'][:12]} -> {args.journal}")
    return 0


def drift_between(prev, head, tolerance):
    """(gate_flips, perf_drifts) between two journal entries."""
    gate_flips = []
    perf_drifts = []
    for name, head_report in sorted(head["reports"].items()):
        prev_report = prev["reports"].get(name)
        if prev_report is None:
            continue
        if prev_report.get("smoke") != head_report.get("smoke"):
            continue  # smoke vs full runs differ by design
        for gate, passed in sorted(prev_report["gates"].items()):
            now = head_report["gates"].get(gate)
            if passed and now is False:
                gate_flips.append(f"{name}: gate '{gate}' pass -> FAIL")
        for key, base in sorted(prev_report["perf"].items()):
            value = head_report["perf"].get(key)
            if not is_number(value):
                continue
            if base == 0:
                drift = 0.0 if value == 0 else float("inf")
            else:
                drift = abs(value - base) / abs(base)
            if drift > tolerance:
                perf_drifts.append(
                    f"{name}: {key}: {base:g} -> {value:g} "
                    f"({drift * 100.0:+.1f}% > {tolerance * 100.0:.0f}%)")
    return gate_flips, perf_drifts


def cmd_report(args):
    try:
        entries = load_journal(args.journal)
    except (OSError, ValueError) as exc:
        print(f"bench_journal: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"bench_journal: empty journal {args.journal}")
        return 0

    window = entries[-args.last:]
    print(f"=== bench journal: {len(entries)} entries, showing last "
          f"{len(window)} ===")
    # Per-bench, per-key value series across the window.
    series = {}
    for entry in window:
        for name, report in entry["reports"].items():
            for key, value in report["perf"].items():
                series.setdefault((name, key), []).append(value)
    for (name, key), values in sorted(series.items()):
        lo, hi = min(values), max(values)
        spread = (hi - lo) / abs(lo) if lo else 0.0
        rendered = " ".join(f"{v:g}" for v in values)
        print(f"{name} {key}: {rendered}"
              + (f"  [spread {spread * 100.0:.1f}%]" if len(values) > 1
                 else ""))

    if len(entries) < 2:
        print("no previous entry to diff against")
        return 0
    gate_flips, perf_drifts = drift_between(entries[-2], entries[-1],
                                            args.tolerance)
    for flip in gate_flips:
        print(f"GATE  {flip}")
    for drift in perf_drifts:
        print(f"DRIFT {drift}")
    if not gate_flips and not perf_drifts:
        print("head vs previous: no gate flips, no out-of-tolerance "
              "drift")
    if gate_flips:
        return 1
    if perf_drifts and args.fail_on_drift:
        return 1
    return 0


def cmd_selftest(_args):
    report_a = {
        "schema": "sov-bench-report-v1", "bench": "demo", "smoke": False,
        "meta": {"latency_budget_ms": 100.0, "wall_s": 3.0},
        "rows": {"runs": [{"name": "r1", "scenarios_per_sec": 50.0,
                           "wall_s": 9.9}]},
        "gates": [{"name": "deterministic", "pass": True}],
        "pass": True,
    }
    report_b = json.loads(json.dumps(report_a))
    report_b["rows"]["runs"][0]["scenarios_per_sec"] = 30.0  # -40%
    report_b["gates"][0]["pass"] = False

    flat = flatten_report(report_a)
    assert flat["perf"] == {"meta.latency_budget_ms": 100.0,
                            "runs[r1].scenarios_per_sec": 50.0}, flat
    assert flat["gates"] == {"deterministic": True}

    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "journal.jsonl")
        for i, report in enumerate((report_a, report_b)):
            path = os.path.join(tmp, "BENCH_demo.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(report, f)
            rc = main(["bench_journal", "append", journal, path,
                       "--commit", f"c{i}"])
            assert rc == 0, rc

        entries = load_journal(journal)
        assert len(entries) == 2
        assert entries[0]["commit"] == "c0"
        # Wall-clock keys never journalled.
        assert all("wall" not in k
                   for e in entries
                   for r in e["reports"].values()
                   for k in r["perf"])

        gate_flips, perf_drifts = drift_between(entries[0], entries[1],
                                                0.10)
        assert gate_flips == ["BENCH_demo.json: gate 'deterministic' "
                              "pass -> FAIL"], gate_flips
        assert len(perf_drifts) == 1, perf_drifts
        assert "scenarios_per_sec" in perf_drifts[0]

        # A gate flip fails the report even without --fail-on-drift.
        rc = main(["bench_journal", "report", journal])
        assert rc == 1, rc

        # Drift alone only fails under --fail-on-drift.
        entries[1]["reports"]["BENCH_demo.json"]["gates"][
            "deterministic"] = True
        with open(journal, "w", encoding="utf-8") as f:
            for e in entries:
                f.write(json.dumps(e, sort_keys=True) + "\n")
        rc = main(["bench_journal", "report", journal])
        assert rc == 0, rc
        rc = main(["bench_journal", "report", journal,
                   "--fail-on-drift"])
        assert rc == 1, rc

        # Smoke-vs-full pairs are skipped (matrices differ by design).
        entries[1]["reports"]["BENCH_demo.json"]["smoke"] = True
        with open(journal, "w", encoding="utf-8") as f:
            for e in entries:
                f.write(json.dumps(e, sort_keys=True) + "\n")
        rc = main(["bench_journal", "report", journal,
                   "--fail-on-drift"])
        assert rc == 0, rc

    print("bench_journal selftest OK")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, add_help=True,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_append = sub.add_parser("append")
    p_append.add_argument("journal")
    p_append.add_argument("reports", nargs="+")
    p_append.add_argument("--commit", default=None)
    p_append.set_defaults(func=cmd_append)

    p_report = sub.add_parser("report")
    p_report.add_argument("journal")
    p_report.add_argument("--fail-on-drift", action="store_true")
    p_report.add_argument("--tolerance", type=float, default=0.10)
    p_report.add_argument("--last", type=int, default=10)
    p_report.set_defaults(func=cmd_report)

    p_selftest = sub.add_parser("selftest")
    p_selftest.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv[1:])
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
