#!/usr/bin/env python3
"""Summarizes a bench_dataplane --json run for the nightly step summary.

Usage:
    python3 tools/dataplane_summary.py BENCH_JSON [TIME_V_FILE]

BENCH_JSON is the JSON object printed by `bench_dataplane --json` (any
size variant). TIME_V_FILE, when given, is the stderr of `/usr/bin/time
-v` wrapped around the bench run; its "Maximum resident set size" line is
reported as the process-wide peak RSS next to the bench's own per-point
samples. The session sweep is rendered as a Markdown table with the
EPC-pressure knee called out (the first point whose cold tier exceeds the
32k-page EPC and starts taking ELDU reloads per resume). Exits non-zero
if the run recorded a zero-copy-vs-legacy divergence or missed the >=3x
speedup floor, so the nightly leg fails loudly on a protocol or perf
break, not just a slow run.
"""

import json
import sys


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    d = json.load(open(sys.argv[1]))
    rss_kb = 0
    if len(sys.argv) > 2:
        for line in open(sys.argv[2]):
            if "Maximum resident" in line:
                rss_kb = int(line.split()[-1])

    print("### dataplane curve (bench_dataplane)")
    print(
        f"- record duel @{d['duel_record_bytes']}B: "
        f"{d['legacy_records_per_sec']:.0f} -> "
        f"{d['batched_records_per_sec']:.0f} records/s "
        f"({d['duel_speedup_x']}x)"
    )
    print()
    print(
        "| sessions | records/s | cycles/byte | hot hits | resumes "
        "| EPC pages | ELDU reloads | RSS MB |"
    )
    print("|---:|---:|---:|---:|---:|---:|---:|---:|")
    knee = None
    for p in d.get("curve", []):
        print(
            f"| {p['sessions']} | {p['records_per_sec']:.0f} "
            f"| {p['cycles_per_byte']} | {p['hot_hits']} | {p['resumes']} "
            f"| {p['epc_pages']} | {p['epc_reloads']} | {p['rss_mb']} |"
        )
        if knee is None and p["epc_reloads"] > 0:
            knee = p
    print()
    if knee is not None:
        print(
            f"- EPC-pressure knee at {knee['sessions']} sessions: "
            f"{knee['epc_pages']} cold-tier pages exceed the EPC, "
            f"{knee['epc_reloads']} ELDU reloads "
            f"({knee['cycles_per_byte']} cycles/byte)"
        )
    else:
        print("- EPC-pressure knee: not reached (cold tier fits in the EPC)")
    if rss_kb:
        print(f"- process peak RSS: {rss_kb / 1024:.1f} MB")

    if d["batch_mismatch_records"] != 0:
        print(
            "ZERO-COPY STREAM DIVERGES: zero-copy and legacy record bytes "
            "disagree",
            file=sys.stderr,
        )
        return 1
    if d["speedup_floor_met"] != 1:
        print(
            f"SPEEDUP FLOOR MISSED: {d['duel_speedup_x']}x < 3x",
            file=sys.stderr,
        )
        return 1
    print("- zero-copy stream byte-identical to legacy: yes (>=3x floor met)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
