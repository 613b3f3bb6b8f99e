#!/usr/bin/env python3
"""Analyze one export bundle: the directory a bench writes with --export.

The bundle's manifest.json names the producing bench, its build flavour
and the files that export wrote (src/telemetry/export.h). Every listed
file must be present and parse. The report has three parts:

  * per-trace critical-path attribution (trace.json). Each trace's span
    DAG is rebuilt from the exported parent edges; its critical path is
    the causal chain ending at the last-finishing span, and that path's
    virtual time is tiled into phases: network / transitions / crypto /
    paging / compute / queueing, plus the control-plane phases
    replication / state_transfer / failover emitted by the sharded
    control plane;
  * the shard rollup, when spans carry a shard id (args.shard): span
    counts, self cycles and time per control-plane phase, per shard;
  * the fleet report, when the bundle holds scrapes and a health report
    beside its events: fault windows reconstructed from the events, the
    health model's SLO windows (telemetry::HealthModel is the only SLO
    evaluator; no window is recomputed here) and the anomalies.

Exit status is 1 if a listed file is missing or does not parse, or if a
telemetry-on bundle's trace holds no span. --check also fails the run on

  * a violated trace invariant: one connected root per trace, self <=
    incl, span self-costs plus the untraced remainder equal to the
    exporter's totals to the instruction, and critical-path coverage
    (network + transitions + crypto + EPC paging + control phases) of at
    least 95% on traces of 1 ms or more;
  * a fleet anomaly, each a check across artifacts:
      counter_regression     a cumulative counter moved backwards between
                             scrapes (instruments are never destroyed);
      broken_scrape_order    scrape seqs not strictly increasing or
                             virtual timestamps not monotone;
      broken_event_order     the same for events;
      health_scrape_mismatch the health report's windows are not the
                             (base, tip) timestamp pairs of the exported
                             scrapes under its policy's window width;
      unhealed_shard_outage  a shard_down with no later shard_up;
      unexplained_slo_breach a health window with a breach (a shard's
                             p99 replication-hop latency over the cap, or
                             fleet goodput under the floor) and no
                             overlapping fault window.

Cycle accounting follows the paper's formula: SGX instructions cost 10K
cycles each, normal instructions convert at IPC 1.8.
"""

import argparse
import json
import os
import sys

CYCLES_PER_SGX_INSTR = 10_000
IPC = 1.8

COST_KEYS = ("sgx", "priv", "norm", "crypto", "paging", "trans")

FLAG_RETX = 1
FLAG_DEFERRED = 2

# Attribution phases, in table order. The last three are control-plane
# phases: spans in these categories classify whole (the cross-shard hop
# *is* the phase — splitting its crypto out would hide what the time was
# spent achieving), so together with the cost-split phases they still tile
# the critical path exactly.
CONTROL_PHASES = ("replication", "state_transfer", "failover")
PHASES = ("network", "transitions", "crypto", "paging", "compute",
          "queueing") + CONTROL_PHASES

# --check: the share of a trace's latency the critical path must explain.
MIN_COVERAGE = 95.0

# Fault types that open/close windows (event "type" strings are the
# EventLog export contract — see src/telemetry/events.cpp).
SHARD_DOWN = "shard_down"
SHARD_UP = "shard_up"
PARTITION_CUT = "partition_cut"
PARTITION_HEAL = "partition_heal"
ENCLAVE_RESTART = "enclave_restart"

# A fault explains a breach seen up to this long after the window closed
# (recovery tails: re-attestation, re-submission, queue drain).
FAULT_TAIL_US = 500_000


# --- the bundle ------------------------------------------------------------

MANIFEST_KEYS = ("bench", "telemetry", "ndebug", "files")


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
                raise ValueError(f"line {lineno}: bad JSON: {e}") from e
    return out


def load_bundle(path):
    """Returns (manifest, {listed file: parsed content}, problems). A
    problem is a missing or unparsable manifest or listed file."""
    try:
        with open(os.path.join(path, "manifest.json"), "r",
                  encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        return None, {}, [f"manifest.json: {e}"]
    missing = [k for k in MANIFEST_KEYS
               if not isinstance(manifest, dict) or k not in manifest]
    if missing:
        return None, {}, [f"manifest.json: no {', '.join(missing)}"]
    data, problems = {}, []
    for name in manifest["files"]:
        file_path = os.path.join(path, name)
        try:
            if name == "trace.json":
                data[name] = load(file_path)
            elif name.endswith(".jsonl"):
                data[name] = load_jsonl(file_path)
            else:
                with open(file_path, "r", encoding="utf-8") as f:
                    data[name] = json.load(f)
        except (OSError, ValueError) as e:
            problems.append(f"{name}: {e}")
    return manifest, data, problems


# --- traces ----------------------------------------------------------------


def zero_cost():
    return {k: 0 for k in COST_KEYS}


class Span:
    __slots__ = ("name", "cat", "ts", "dur", "trace", "span", "parent",
                 "flags", "shard", "self_cost", "incl_cost", "children")

    def __init__(self, ev):
        args = ev.get("args", {})
        self.name = ev.get("name", "?")
        self.cat = ev.get("cat", "?")
        self.ts = int(ev.get("ts", 0))
        self.dur = int(ev.get("dur", 0))
        self.trace = int(args.get("trace", 0))
        self.span = int(args.get("span", 0))
        self.parent = int(args.get("parent", 0))
        self.flags = int(args.get("flags", 0))
        # Shard id for control-plane spans (absent on unsharded spans).
        self.shard = args.get("shard")
        self.self_cost = dict(zero_cost(), **args.get("self", {}))
        # incl is omitted by the exporter when it equals self.
        incl = args.get("incl")
        self.incl_cost = (dict(zero_cost(), **incl) if incl is not None
                          else dict(self.self_cost))
        self.children = []

    @property
    def end(self):
        return self.ts + self.dur

    def label(self):
        return f"{self.cat}:{self.name}"


def cycles_of(cost):
    """Paper §5 cycle estimate for one cost vector."""
    normal = cost["norm"] + cost["crypto"] + cost["paging"]
    return cost["sgx"] * CYCLES_PER_SGX_INSTR + normal / IPC


def load(path):
    """Returns (all span events, otherData totals or None)."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome-trace JSON document")
    spans = [Span(ev) for ev in doc["traceEvents"]
             if isinstance(ev.get("args"), dict) and "span" in ev["args"]]
    other = doc.get("otherData")
    return spans, other


def group_traces(spans):
    """trace_id -> list of spans, nonzero traces only, span-id order."""
    traces = {}
    for s in spans:
        if s.trace != 0:
            traces.setdefault(s.trace, []).append(s)
    for spans_of in traces.values():
        spans_of.sort(key=lambda s: s.span)
    return dict(sorted(traces.items()))


def build_dag(trace_spans):
    """Fills children lists; returns (by_id, roots). A root is a span
    whose parent is outside the trace (0 or an ambient span)."""
    by_id = {s.span: s for s in trace_spans}
    roots = []
    for s in trace_spans:
        s.children = []
    for s in trace_spans:
        parent = by_id.get(s.parent)
        if parent is None:
            roots.append(s)
        else:
            parent.children.append(s)
    return by_id, roots


def reachable_from(roots):
    seen = set()
    stack = list(roots)
    while stack:
        s = stack.pop()
        if s.span in seen:
            continue
        seen.add(s.span)
        stack.extend(s.children)
    return seen


def critical_path(trace_spans, by_id):
    """The causal chain ending at the span that finishes last, walked back
    through parent edges to the trace root. Returned root-first."""
    leaf = max(trace_spans, key=lambda s: (s.end, s.span))
    chain = [leaf]
    while chain[-1].parent in by_id:
        chain.append(by_id[chain[-1].parent])
    chain.reverse()
    return chain


def classify_gap(nxt):
    """A gap on the critical path before span `nxt` is time the request
    spent not executing: in flight on a link if the next thing that
    happened was a delivery, queued (timer backoff, deferred ring,
    scheduling) otherwise."""
    if nxt.cat == "net":
        return "network"
    return "queueing"


def split_span_segment(span, duration, phases):
    """Splits `duration` us of span-covered critical-path time across
    phases proportionally to the span's self-cost cycles; zero-cost spans
    classify whole by category. Control-plane spans (replication /
    state_transfer / failover) always classify whole — their category names
    what the time accomplished, which is the question the fleet report
    asks."""
    if span.cat in CONTROL_PHASES:
        phases[span.cat] += duration
        return
    self_cycles = {
        "transitions": span.self_cost["sgx"] * CYCLES_PER_SGX_INSTR,
        "crypto": span.self_cost["crypto"] / IPC,
        "paging": span.self_cost["paging"] / IPC,
        "compute": span.self_cost["norm"] / IPC,
    }
    total = sum(self_cycles.values())
    if total <= 0:
        phases["network" if span.cat == "net" else "compute"] += duration
        return
    for phase, cyc in self_cycles.items():
        phases[phase] += duration * (cyc / total)


def attribute(chain):
    """Tiles [chain start, leaf end] into phase-classified time. Returns
    (phase -> us, total us). Complete by construction: phase times sum to
    the end-to-end virtual latency exactly."""
    phases = {p: 0.0 for p in PHASES}
    start = chain[0].ts
    end = chain[-1].end
    total = end - start
    cursor = start
    for i, s in enumerate(chain):
        if s.ts > cursor:
            phases[classify_gap(s)] += s.ts - cursor
            cursor = s.ts
        nxt = chain[i + 1] if i + 1 < len(chain) else None
        seg_end = min(s.end, nxt.ts) if nxt is not None else s.end
        seg_end = min(seg_end, end)
        if seg_end > cursor:
            split_span_segment(s, seg_end - cursor, phases)
            cursor = seg_end
    return phases, total


def trace_cost(trace_spans):
    tot = zero_cost()
    for s in trace_spans:
        for k in COST_KEYS:
            tot[k] += s.self_cost[k]
    return tot


def collapsed_stacks(traces):
    """flamegraph.pl input: one 'a;b;c weight' line per unique DAG path,
    weight = the leaf span's self cycles (rounded, zero-weight dropped)."""
    stacks = {}

    def walk(span, prefix):
        path = prefix + [span.label()]
        weight = round(cycles_of(span.self_cost))
        if weight > 0:
            key = ";".join(path)
            stacks[key] = stacks.get(key, 0) + weight
        for child in sorted(span.children, key=lambda s: s.span):
            walk(child, path)

    for trace_spans in traces.values():
        by_id, roots = build_dag(trace_spans)
        for root in roots:
            walk(root, [])
    return "".join(f"{k} {v}\n" for k, v in sorted(stacks.items()))


def fmt_us(us):
    if us >= 1000:
        return f"{us / 1000:.3f} ms"
    return f"{us:.1f} us"


def shard_table(spans, out=None):
    """Aggregates spans carrying a shard tag into a per-shard table: span
    count, self cycles, and wall time per control-plane phase. Untagged
    spans are ignored — the table answers "where did each shard spend its
    control-plane time", not "where did every cycle go" (that is the
    per-trace report). Prints nothing when no span is tagged."""
    per = {}
    for s in spans:
        if s.shard is None:
            continue
        row = per.setdefault(int(s.shard), {
            "spans": 0, "cycles": 0.0,
            **{p: 0.0 for p in CONTROL_PHASES}})
        row["spans"] += 1
        row["cycles"] += cycles_of(s.self_cost)
        if s.cat in CONTROL_PHASES:
            row[s.cat] += s.dur
    if not per:
        return per
    print("\nshard rollup", file=out)
    print(f"{'shard':>5}  {'spans':>6}  {'self cycles':>12}  "
          + "  ".join(f"{p:>14}" for p in CONTROL_PHASES), file=out)
    for shard in sorted(per):
        row = per[shard]
        print(f"{shard:>5}  {row['spans']:>6}  {row['cycles']:>12.0f}  "
              + "  ".join(f"{fmt_us(row[p]):>14}" for p in CONTROL_PHASES),
              file=out)
    return per


def print_trace_report(tid, trace_spans, out=None):
    by_id, roots = build_dag(trace_spans)
    chain = critical_path(trace_spans, by_id)
    phases, total = attribute(chain)
    root = roots[0] if roots else chain[0]
    retx = sum(1 for s in trace_spans if s.flags & FLAG_RETX)
    deferred = sum(1 for s in trace_spans if s.flags & FLAG_DEFERRED)
    cost = trace_cost(trace_spans)

    print(f"trace {tid}: {root.label()}  "
          f"spans={len(trace_spans)} retx={retx} deferred={deferred}",
          file=out)
    print(f"  end-to-end: {fmt_us(total)}  "
          f"cycles={cycles_of(cost):.0f} "
          f"(sgx={cost['sgx']} transitions={cost['trans']} "
          f"crypto={cost['crypto']} paging={cost['paging']} "
          f"normal={cost['norm']})", file=out)
    print(f"  critical path ({len(chain)} spans): "
          + " -> ".join(s.label() for s in chain), file=out)
    print("  attribution:", file=out)
    for phase in PHASES:
        us = phases[phase]
        pct = 100.0 * us / total if total > 0 else 0.0
        if us <= 0:
            continue
        print(f"    {phase:<12} {fmt_us(us):>12}  {pct:6.2f}%", file=out)
    return phases, total


def self_check(spans, other, out=None):
    """Verifies the tracing invariants; returns a list of violations."""
    errors = []
    traces = group_traces(spans)

    if not traces:
        errors.append("no traces found (no span carries a nonzero trace id)")

    # 1. One connected DAG per trace.
    for tid, trace_spans in traces.items():
        by_id, roots = build_dag(trace_spans)
        if len(roots) != 1:
            errors.append(
                f"trace {tid}: {len(roots)} roots "
                f"({[s.label() for s in roots]}), expected exactly 1")
            continue
        seen = reachable_from(roots)
        if len(seen) != len(trace_spans):
            orphans = [s.label() for s in trace_spans if s.span not in seen]
            errors.append(
                f"trace {tid}: {len(orphans)} spans unreachable from root: "
                f"{orphans[:5]}")

    # 2. self <= incl, component-wise, every span.
    for s in spans:
        for k in COST_KEYS:
            if s.self_cost[k] > s.incl_cost[k]:
                errors.append(
                    f"span {s.span} ({s.label()}): self.{k}="
                    f"{s.self_cost[k]} > incl.{k}={s.incl_cost[k]}")

    # 3. Exact accounting: sum of all span selfs + untraced == totals.
    if other and "costTotal" in other:
        total = dict(zero_cost(), **other["costTotal"])
        untraced = dict(zero_cost(), **other.get("costUntraced", {}))
        summed = zero_cost()
        for s in spans:
            for k in COST_KEYS:
                summed[k] += s.self_cost[k]
        for k in COST_KEYS:
            if summed[k] + untraced[k] != total[k]:
                errors.append(
                    f"cost accounting leak in '{k}': "
                    f"sum(span self)={summed[k]} + untraced={untraced[k]} "
                    f"!= total={total[k]}")

    # 4. Critical-path coverage on substantial traces: transitions +
    #    crypto + paging + network must explain >= MIN_COVERAGE% of the
    #    latency. Paging (EAUG page setup as enclave heap grows) is a
    #    modeled part like the others; only unmodeled compute and queueing
    #    count against a trace.
    for tid, trace_spans in traces.items():
        by_id, _ = build_dag(trace_spans)
        chain = critical_path(trace_spans, by_id)
        phases, total = attribute(chain)
        if total < 1000:  # < 1 ms of virtual time: control-query noise
            continue
        covered = (phases["network"] + phases["transitions"] +
                   phases["crypto"] + phases["paging"] +
                   sum(phases[p] for p in CONTROL_PHASES))
        pct = 100.0 * covered / total
        if pct < MIN_COVERAGE:
            errors.append(
                f"trace {tid}: network+transitions+crypto+paging covers "
                f"{pct:.2f}% of {fmt_us(total)}, below {MIN_COVERAGE}% "
                f"(queueing={fmt_us(phases['queueing'])}, "
                f"compute={fmt_us(phases['compute'])})")

    print(f"self-check: {len(traces)} traces, {len(spans)} spans, "
          f"{len(errors)} violations", file=out)
    for e in errors:
        print(f"  FAIL: {e}", file=out)
    if not errors:
        print("  all invariants hold (connectivity, self<=incl, "
              "exact cost sums, critical-path coverage)", file=out)
    return errors


# --- the fleet: events, scrapes and the health report ----------------------


def check_order(rows, noun, prev_seq, anomalies):
    """Seqs strictly increasing from above `prev_seq`, timestamps
    monotone (events count from 1, scrapes from 0)."""
    prev_ts = 0
    for r in rows:
        if r["seq"] <= prev_seq:
            anomalies.append(
                {"rule": f"broken_{noun}_order",
                 "detail": f"{noun} seq {r['seq']} after {prev_seq}"})
        if r["ts_us"] < prev_ts:
            anomalies.append(
                {"rule": f"broken_{noun}_order",
                 "detail": f"{noun} ts {r['ts_us']}us after {prev_ts}us"})
        prev_seq, prev_ts = r["seq"], r["ts_us"]


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


def explained(windows, start_us, end_us):
    """True iff [start_us, end_us] overlaps a fault window (+ tail). Any
    overlapping fault explains a breach, scoped or not: an outage of one
    shard puts its failover load on the survivors."""
    for w in windows:
        if start_us <= w["end_us"] + FAULT_TAIL_US and w["start_us"] <= end_us:
            return True
    return False


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
            if explained(faults, w["start_us"], w["end_us"]):
                continue
            what = (f"shard {b['shard']} p99 {b['p99_us']}us"
                    if b["kind"] == "hop_latency"
                    else f"goodput {b['goodput']:.3f}")
            anomalies.append(
                {"rule": "unexplained_slo_breach",
                 "detail": f"{what} in [{w['start_us']}, {w['end_us']}]us "
                           "with no overlapping fault window"})


def build_report(events, scrapes, health):
    anomalies = []
    check_order(events, "event", 0, anomalies)
    check_order(scrapes, "scrape", -1, anomalies)
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

    counts = {}
    for e in events:
        counts[e["type"]] = counts.get(e["type"], 0) + 1
    return {
        "start_us": scrapes[0]["ts_us"] if scrapes else 0,
        "end_us": end_ts,
        "event_total": len(events),
        "event_counts": counts,
        "scrape_total": len(scrapes),
        "fault_windows": faults,
        "slo_windows": slo,
        "anomalies": anomalies,
        "health": health,
    }


def render(report, out=None):
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


# --- the report ------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("bundle", help="directory a bench wrote with --export")
    ap.add_argument("--check", action="store_true",
                    help="also exit 1 on a violated trace invariant or a "
                         "fleet anomaly")
    ap.add_argument("--trace-id", type=int, default=None,
                    help="print the attribution of this trace only")
    ap.add_argument("--collapsed", metavar="FILE", default=None,
                    help="write collapsed-stack flamegraph input "
                         "(use '-' for stdout)")
    ap.add_argument("--out", metavar="FILE", default=None,
                    help="write the fleet report as JSON")
    args = ap.parse_args(argv)

    manifest, data, problems = load_bundle(args.bundle)
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print(f"bundle {args.bundle}: {manifest['bench']}, telemetry "
          f"{'on' if manifest['telemetry'] else 'off'}, "
          f"{'NDEBUG' if manifest['ndebug'] else 'assertions on'}; "
          f"{', '.join(manifest['files'])}")

    spans, other = data.get("trace.json", ([], None))
    if manifest["telemetry"] and not spans:
        print("FAIL: trace.json holds no span, though telemetry is on")
        return 1
    traces = group_traces(spans)
    print(f"trace.json: {len(spans)} spans, {len(traces)} traces")
    shown = traces
    if args.trace_id is not None:
        if args.trace_id not in traces:
            print(f"trace {args.trace_id} not found "
                  f"(have: {sorted(traces)})", file=sys.stderr)
            return 1
        shown = {args.trace_id: traces[args.trace_id]}
    for tid, trace_spans in shown.items():
        print()
        print_trace_report(tid, trace_spans)
    shard_table(spans)

    if args.collapsed is not None:
        body = collapsed_stacks(traces)
        if args.collapsed == "-":
            sys.stdout.write(body)
        else:
            with open(args.collapsed, "w", encoding="utf-8") as f:
                f.write(body)
            print(f"wrote {len(body.splitlines())} stacks "
                  f"to {args.collapsed}")

    fleet = None
    if "scrapes.jsonl" in data and "health.json" in data:
        fleet = build_report(data.get("events.jsonl", []),
                             data["scrapes.jsonl"], data["health.json"])
        print()
        render(fleet)
    if args.out:
        if fleet is None:
            print("FAIL: --out: the bundle holds no scrapes and health "
                  "report")
            return 1
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(fleet, f, indent=1, sort_keys=True)
            f.write("\n")

    if not args.check:
        return 0
    print()
    errors = self_check(spans, other)
    return 1 if errors or (fleet is not None and fleet["anomalies"]) else 0


if __name__ == "__main__":
    sys.exit(main())
