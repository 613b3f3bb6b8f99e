#!/usr/bin/env python3
"""Fleet report + chaos-drill anomaly detector.

Joins the four observability exports of a run:

  * health report JSON (telemetry::HealthModel::report_json) — the SLO
    policy and the verdict of every scrape window (per-shard hop p99,
    fleet goodput, breaches). HealthModel is the only SLO evaluator; this
    tool never recomputes a window;
  * scrape JSONL   (telemetry::Scraper::write_jsonl) — rolling time series
    of every counter/gauge/histogram, one sample per line;
  * event JSONL    (telemetry::EventLog::write_jsonl) — typed fleet events
    (shard down/up, failover adoption, rollback refusals, partitions,
    enclave restarts, ...), one event per line;
  * optional drill summary JSON (a bench --json object, e.g.
    bench_observability).

and renders a fleet report: what happened (fault windows reconstructed
from events), how the fleet behaved (the health report's SLO windows),
and — the point — whether anything happened that the fault record does
NOT explain. Anomaly rules, each a check across artifacts:

  counter_regression     a cumulative counter moved backwards between
                         scrapes (instruments are never destroyed, so any
                         regression means samples were lost or forged);
  broken_scrape_order    scrape seqs not strictly increasing or virtual
                         timestamps not monotone;
  broken_event_order     event seqs not strictly increasing or event
                         timestamps not monotone;
  health_scrape_mismatch the health report's windows are not the
                         (base, tip) timestamp pairs of the exported
                         scrapes under its policy's window width (a report
                         from another run, or a truncated one);
  unhealed_shard_outage  a shard_down with no matching shard_up by the end
                         of the log (the kill-one-shard injection);
  unexplained_slo_breach a health window with a breach (a shard's p99
                         replication-hop latency over the cap, or fleet
                         goodput under the floor) and NO overlapping fault
                         window (outage, partition, enclave restart);
  admitted_state_loss    the drill summary reports lost admissions
                         (chaos_lost_admissions / lost_admissions > 0).

With --check the exit status is non-zero iff any anomaly fired, so CI can
gate the nightly chaos drill on "every breach has a cause". A clean
same-seed drill must pass; the same drill with an injected unhealed kill
must fail.
"""

import argparse
import json
import sys

# Fault types that open/close windows (event "type" strings are the
# EventLog export contract — see src/telemetry/events.cpp).
SHARD_DOWN = "shard_down"
SHARD_UP = "shard_up"
PARTITION_CUT = "partition_cut"
PARTITION_HEAL = "partition_heal"
ENCLAVE_RESTART = "enclave_restart"
DEGRADE_EVENTS = ("rollback_refused",)

# A fault explains a breach seen up to this long after the window closed
# (recovery tails: re-attestation, re-submission, queue drain).
FAULT_TAIL_US = 500_000


def load_jsonl(path):
    """Parses one JSON object per non-empty line; returns a list."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{lineno}: bad JSON: {e}") from e
    return out


# --- order / monotonicity checks -----------------------------------------


def check_event_order(events, anomalies):
    prev_seq, prev_ts = 0, 0
    for e in events:
        if e["seq"] <= prev_seq:
            anomalies.append(
                {"rule": "broken_event_order",
                 "detail": f"event seq {e['seq']} after {prev_seq}"})
        if e["ts_us"] < prev_ts:
            anomalies.append(
                {"rule": "broken_event_order",
                 "detail": f"event ts {e['ts_us']}us after {prev_ts}us"})
        prev_seq, prev_ts = e["seq"], e["ts_us"]


def check_scrape_order(scrapes, anomalies):
    prev_seq, prev_ts = -1, 0
    for s in scrapes:
        if s["seq"] <= prev_seq:
            anomalies.append(
                {"rule": "broken_scrape_order",
                 "detail": f"scrape seq {s['seq']} after {prev_seq}"})
        if s["ts_us"] < prev_ts:
            anomalies.append(
                {"rule": "broken_scrape_order",
                 "detail": f"scrape ts {s['ts_us']}us after {prev_ts}us"})
        prev_seq, prev_ts = s["seq"], s["ts_us"]


def check_counter_monotone(scrapes, anomalies):
    """Every cumulative counter must be non-decreasing across the ring."""
    last = {}
    regressions = 0
    for s in scrapes:
        for name, value in s["metrics"]["counters"].items():
            if value < last.get(name, 0):
                regressions += 1
                if regressions <= 5:  # cap the noise, count the rest
                    anomalies.append(
                        {"rule": "counter_regression",
                         "detail": f"{name} fell {last[name]} -> {value} "
                                   f"at scrape seq {s['seq']}"})
            last[name] = value
    if regressions > 5:
        anomalies.append(
            {"rule": "counter_regression",
             "detail": f"... and {regressions - 5} more regressions"})


# --- fault windows from the event log ------------------------------------


def fault_windows(events, end_ts, anomalies):
    """Reconstructs [start_us, end_us] fault windows. An outage still open
    at `end_ts` is itself an anomaly (the injected unhealed kill)."""
    windows = []  # {kind, shard|None, start, end}
    open_outage = {}  # shard -> start ts (first down of the open outage)
    open_cut = None
    for e in events:
        t, ts = e["type"], e["ts_us"]
        if t == SHARD_DOWN:
            open_outage.setdefault(e["a"], ts)
        elif t == SHARD_UP:
            start = open_outage.pop(e["a"], None)
            if start is not None:
                windows.append({"kind": "shard_outage", "shard": e["a"],
                                "start_us": start, "end_us": ts})
        elif t == PARTITION_CUT:
            if open_cut is None:
                open_cut = ts
        elif t == PARTITION_HEAL:
            if open_cut is not None:
                windows.append({"kind": "partition", "shard": None,
                                "start_us": open_cut, "end_us": ts})
                open_cut = None
        elif t == ENCLAVE_RESTART:
            # Point fault: teardown + relaunch, recovery rides the tail.
            windows.append({"kind": "enclave_restart", "shard": None,
                            "start_us": ts, "end_us": ts})
    for shard, start in sorted(open_outage.items()):
        anomalies.append(
            {"rule": "unhealed_shard_outage",
             "detail": f"shard {shard} down at {start}us, never came back"})
        windows.append({"kind": "shard_outage", "shard": shard,
                        "start_us": start, "end_us": end_ts})
    if open_cut is not None:
        windows.append({"kind": "partition", "shard": None,
                        "start_us": open_cut, "end_us": end_ts})
    return windows


def explained(windows, start_us, end_us, shard=None):
    """True iff [start_us, end_us] overlaps a fault window (+ tail). A
    shard-scoped breach is explained by that shard's outage or by any
    fleet-wide fault; outages of OTHER shards also count (failover load
    lands on the survivors)."""
    for w in windows:
        if start_us <= w["end_us"] + FAULT_TAIL_US and w["start_us"] <= end_us:
            return True
    del shard  # breaches ride on any overlapping fault, scoped or not
    return False


# --- the health report's SLO windows ------------------------------------


def check_health_windows(health, scrapes, anomalies):
    """The health report must describe these scrapes: its windows are the
    (base, tip) timestamp pairs the policy's window width gives over the
    scrape ring, one per tip after the oldest."""
    width = max(1, health["policy"]["window_samples"])
    want = [(scrapes[max(0, i - width + 1)]["ts_us"], scrapes[i]["ts_us"])
            for i in range(1, len(scrapes))]
    got = [(w["start_us"], w["end_us"]) for w in health.get("windows", [])]
    if got == want:
        return
    if len(got) != len(want):
        detail = (f"{len(got)} health windows for {len(want)} scrape "
                  "windows")
    else:
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        detail = (f"health window {i} spans {list(got[i])}us, scrapes give "
                  f"{list(want[i])}us")
    anomalies.append({"rule": "health_scrape_mismatch", "detail": detail})


def check_breaches(windows, faults, anomalies):
    for w in windows:
        for b in w["breaches"]:
            if explained(faults, w["start_us"], w["end_us"], b.get("shard")):
                continue
            what = (f"shard {b['shard']} p99 {b['p99_us']}us"
                    if b["kind"] == "hop_latency"
                    else f"goodput {b['goodput']:.3f}")
            anomalies.append(
                {"rule": "unexplained_slo_breach",
                 "detail": f"{what} in [{w['start_us']}, {w['end_us']}]us "
                           "with no overlapping fault window"})


def check_summary(summary, anomalies):
    lost = summary.get("chaos_lost_admissions", summary.get(
        "lost_admissions", 0))
    if lost:
        anomalies.append(
            {"rule": "admitted_state_loss",
             "detail": f"drill summary reports {lost} lost admissions"})


# --- report rendering ----------------------------------------------------


def render(report, out=None):
    out = out if out is not None else sys.stdout
    p = lambda *a: print(*a, file=out)  # noqa: E731
    p("fleet report")
    p(f"  events: {report['event_total']} "
      f"({', '.join(f'{k}={v}' for k, v in sorted(report['event_counts'].items())) or 'none'})")
    p(f"  scrapes: {report['scrape_total']}, "
      f"span {report['start_us']}..{report['end_us']}us")
    if report["fault_windows"]:
        p("  fault windows:")
        for w in report["fault_windows"]:
            who = f"shard {w['shard']}" if w["shard"] is not None else "fleet"
            p(f"    {w['kind']:16s} {who:10s} "
              f"[{w['start_us']}, {w['end_us']}]us "
              f"({(w['end_us'] - w['start_us']) / 1000.0:.1f} ms)")
    else:
        p("  fault windows: none")
    breaches = sum(len(w["breaches"]) for w in report["slo_windows"])
    p(f"  slo windows: {len(report['slo_windows'])} evaluated, "
      f"{breaches} breach(es)")
    if report["anomalies"]:
        p("  ANOMALIES:")
        for a in report["anomalies"]:
            p(f"    {a['rule']}: {a['detail']}")
    else:
        p("  anomalies: none")


def build_report(events, scrapes, summary, health):
    anomalies = []
    check_event_order(events, anomalies)
    check_scrape_order(scrapes, anomalies)
    check_counter_monotone(scrapes, anomalies)

    end_ts = 0
    if events:
        end_ts = max(end_ts, events[-1]["ts_us"])
    if scrapes:
        end_ts = max(end_ts, scrapes[-1]["ts_us"])
    faults = fault_windows(events, end_ts, anomalies)
    check_health_windows(health, scrapes, anomalies)
    slo = health.get("windows", [])
    check_breaches(slo, faults, anomalies)
    if summary is not None:
        check_summary(summary, anomalies)

    counts = {}
    for e in events:
        counts[e["type"]] = counts.get(e["type"], 0) + 1
    report = {
        "start_us": scrapes[0]["ts_us"] if scrapes else 0,
        "end_us": end_ts,
        "event_total": len(events),
        "event_counts": counts,
        "scrape_total": len(scrapes),
        "fault_windows": faults,
        "slo_windows": slo,
        "anomalies": anomalies,
    }
    if summary is not None:
        report["summary"] = summary
    report["health"] = health
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--events", required=True,
                    help="event-log JSONL (EventLog::write_jsonl)")
    ap.add_argument("--scrapes", required=True,
                    help="scrape-ring JSONL (Scraper::write_jsonl)")
    ap.add_argument("--health", required=True,
                    help="health report JSON (HealthModel::report_json): "
                         "SLO policy and per-window verdicts")
    ap.add_argument("--summary", help="drill summary JSON (bench --json)")
    ap.add_argument("--out", help="write the full report as JSON here")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero if any anomaly fired")
    args = ap.parse_args(argv)

    events = load_jsonl(args.events)
    scrapes = load_jsonl(args.scrapes)
    summary = None
    if args.summary:
        with open(args.summary, "r", encoding="utf-8") as f:
            summary = json.load(f)
    with open(args.health, "r", encoding="utf-8") as f:
        health = json.load(f)

    report = build_report(events, scrapes, summary, health)
    render(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    if args.check and report["anomalies"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
