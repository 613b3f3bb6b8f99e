#!/usr/bin/env python3
"""Unit tests for the trace half of the bundle analyzer (tools/analyze.py).

The analyzer's --check gates the nightly telemetry-capture job, so its
DAG reconstruction and invariant checks are load-bearing: it must
rebuild one connected span DAG per trace from the exported parent edges,
pick the causal chain ending at the last-finishing span as the critical
path, tile that chain's wall time into phases that sum exactly to the
end-to-end latency, and reject traces whose span cost sums do not
reproduce the exporter's grand totals to the instruction.

The golden trace (golden_trace.json) mirrors the C++ exporter's shape:
span events carrying args.{trace,span,parent,flags} with optional
self/incl cost vectors, a legacy args-free event, and otherData totals.
The CLI cases wrap it in an export bundle (manifest.json beside it).

Run directly (ctest registers it with the tier1 label):
    python3 tests/tools/trace_analyze_test.py
"""

import contextlib
import importlib.util
import io
import json
import pathlib
import tempfile
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
SPEC = importlib.util.spec_from_file_location(
    "analyze", REPO_ROOT / "tools" / "analyze.py"
)
analyze = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(analyze)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_trace.json"


def load_golden_doc():
    return json.loads(GOLDEN.read_text())


def write_doc(tmpdir, doc):
    path = pathlib.Path(tmpdir) / "trace.json"
    path.write_text(json.dumps(doc))
    return str(path)


def self_check(path):
    return analyze.self_check(*analyze.load(path), out=io.StringIO())


def write_bundle(tmpdir, doc):
    """A telemetry-on export bundle holding `doc` as its trace."""
    write_doc(tmpdir, doc)
    bundle = pathlib.Path(tmpdir)
    (bundle / "metrics.json").write_text(
        '{"counters":{},"gauges":{},"histograms":{}}\n')
    (bundle / "events.jsonl").write_text("")
    (bundle / "manifest.json").write_text(json.dumps(
        {"bench": "bench_test", "telemetry": True, "ndebug": True,
         "files": ["trace.json", "metrics.json", "events.jsonl"]}))
    return str(bundle)


def run_main(args):
    """Runs analyze.main quietly; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = analyze.main(args)
    return rc, buf.getvalue()


class LoadAndGroupTest(unittest.TestCase):
    def test_legacy_events_are_filtered(self):
        spans, other = analyze.load(str(GOLDEN))
        # 8 traceEvents, one of which (sim:boot) has no args.span.
        self.assertEqual(len(spans), 7)
        self.assertNotIn("boot", [s.name for s in spans])
        self.assertIn("costTotal", other)

    def test_traces_group_by_id(self):
        spans, _ = analyze.load(str(GOLDEN))
        traces = analyze.group_traces(spans)
        self.assertEqual(sorted(traces), [1, 2])
        self.assertEqual(len(traces[1]), 3)
        self.assertEqual(len(traces[2]), 4)

    def test_missing_self_is_zero_and_missing_incl_defaults_to_self(self):
        spans, _ = analyze.load(str(GOLDEN))
        by_id = {s.span: s for s in spans}
        # span 2 (net:deliver) exports no "self" (all zero) but an incl
        # folded from its nested child.
        self.assertEqual(by_id[2].self_cost, analyze.zero_cost())
        self.assertEqual(by_id[2].incl_cost["sgx"], 2)
        # span 3 exports self only; incl must default to self.
        self.assertEqual(by_id[3].incl_cost, by_id[3].self_cost)


class DagTest(unittest.TestCase):
    def setUp(self):
        spans, _ = analyze.load(str(GOLDEN))
        self.traces = analyze.group_traces(spans)

    def test_single_root_and_parent_edges(self):
        by_id, roots = analyze.build_dag(self.traces[1])
        self.assertEqual([r.span for r in roots], [1])
        self.assertEqual([c.span for c in by_id[1].children], [2])
        self.assertEqual([c.span for c in by_id[2].children], [3])

    def test_critical_path_is_ancestry_of_last_finisher(self):
        # Trace 1: span 2 (net:deliver) ends at 2500, after its nested
        # child span 3 (2450) — the chain is root -> deliver, not the
        # deeper-but-earlier ecall.
        by_id, _ = analyze.build_dag(self.traces[1])
        chain = analyze.critical_path(self.traces[1], by_id)
        self.assertEqual([s.span for s in chain], [1, 2])
        # Trace 2: the deferred ocall (span 7) ends before its parent
        # delivery span 6, so the chain is 4 -> 5 -> 6.
        by_id2, _ = analyze.build_dag(self.traces[2])
        chain2 = analyze.critical_path(self.traces[2], by_id2)
        self.assertEqual([s.span for s in chain2], [4, 5, 6])

    def test_flags_survive_reconstruction(self):
        retx = [s.span for s in self.traces[2]
                if s.flags & analyze.FLAG_RETX]
        deferred = [s.span for s in self.traces[2]
                    if s.flags & analyze.FLAG_DEFERRED]
        self.assertEqual(retx, [5, 6])
        self.assertEqual(deferred, [7])


class AttributionTest(unittest.TestCase):
    def test_phases_tile_the_latency_exactly(self):
        spans, _ = analyze.load(str(GOLDEN))
        traces = analyze.group_traces(spans)
        by_id, _ = analyze.build_dag(traces[1])
        chain = analyze.critical_path(traces[1], by_id)
        phases, total = analyze.attribute(chain)
        self.assertEqual(total, 1500)  # [1000, 2500]
        self.assertAlmostEqual(sum(phases.values()), total, places=6)
        # The 1000us gap before the delivery plus the zero-self-cost
        # delivery span itself are both network time.
        self.assertAlmostEqual(phases["network"], 1300.0)
        # The root's 200us splits by self cycles: 5 SGX instructions at
        # 10K cycles dwarf the 1000 normal-class instructions at IPC 1.8.
        self.assertGreater(phases["transitions"], 195.0)
        self.assertGreater(phases["crypto"], 0.0)
        covered = phases["network"] + phases["transitions"] + phases["crypto"]
        self.assertGreaterEqual(100.0 * covered / total, 95.0)

    def test_cycles_follow_the_paper_formula(self):
        cost = dict(analyze.zero_cost(), sgx=2, norm=9, crypto=9)
        self.assertAlmostEqual(
            analyze.cycles_of(cost), 2 * 10_000 + 18 / 1.8
        )


def control_plane_doc():
    """A sharded control-plane trace: a replication send on shard 2, the
    network hop, and the apply on shard 3 — the shape shard_group.cpp
    exports (cat in {replication, state_transfer, failover}, args.shard)."""
    return {
        "traceEvents": [
            {"name": "replicate", "cat": "replication", "ph": "X",
             "ts": 0, "dur": 300, "pid": 1, "tid": 1,
             "args": {"trace": 7, "span": 1, "parent": 0, "shard": 2,
                      "self": {"sgx": 1, "crypto": 50}}},
            {"name": "deliver", "cat": "net", "ph": "X",
             "ts": 1300, "dur": 100, "pid": 1, "tid": 1,
             "args": {"trace": 7, "span": 2, "parent": 1}},
            {"name": "apply", "cat": "replication", "ph": "X",
             "ts": 1400, "dur": 200, "pid": 1, "tid": 1,
             "args": {"trace": 7, "span": 3, "parent": 2, "shard": 3,
                      "self": {"norm": 90}}},
            {"name": "refront", "cat": "failover", "ph": "X",
             "ts": 1600, "dur": 50, "pid": 1, "tid": 1,
             "args": {"trace": 7, "span": 4, "parent": 3, "shard": 3}},
        ]
    }


class ControlPlanePhaseTest(unittest.TestCase):
    def test_control_spans_classify_whole_and_still_tile(self):
        doc = control_plane_doc()
        with tempfile.TemporaryDirectory() as tmp:
            spans, _ = analyze.load(write_doc(tmp, doc))
        traces = analyze.group_traces(spans)
        by_id, _ = analyze.build_dag(traces[7])
        chain = analyze.critical_path(traces[7], by_id)
        self.assertEqual([s.span for s in chain], [1, 2, 3, 4])
        phases, total = analyze.attribute(chain)
        self.assertEqual(total, 1650)
        # Tiling is exact even with whole-span control phases in the mix.
        self.assertAlmostEqual(sum(phases.values()), total, places=6)
        # Despite nonzero sgx/crypto self cost, the replication span's time
        # lands in "replication", not split into transitions/crypto.
        self.assertAlmostEqual(phases["replication"], 500.0)
        self.assertAlmostEqual(phases["failover"], 50.0)
        self.assertAlmostEqual(phases["network"], 1100.0)
        self.assertAlmostEqual(phases["transitions"], 0.0)

    def test_control_phases_count_toward_selfcheck_coverage(self):
        # The trace is >1ms and replication-dominated; coverage must pass
        # because control phases are attributed work, not a leak.
        with tempfile.TemporaryDirectory() as tmp:
            errors = self_check(write_doc(tmp, control_plane_doc()))
        self.assertEqual(errors, [])

    def test_shard_table_aggregates_tagged_spans(self):
        doc = control_plane_doc()
        with tempfile.TemporaryDirectory() as tmp:
            spans, _ = analyze.load(write_doc(tmp, doc))
        per = analyze.shard_table(spans, out=io.StringIO())
        self.assertEqual(sorted(per), [2, 3])
        self.assertEqual(per[2]["spans"], 1)
        self.assertEqual(per[3]["spans"], 2)
        self.assertAlmostEqual(per[2]["replication"], 300.0)
        self.assertAlmostEqual(per[3]["replication"], 200.0)
        self.assertAlmostEqual(per[3]["failover"], 50.0)
        # The untagged net:deliver span contributes to no row.
        self.assertEqual(sum(r["spans"] for r in per.values()), 3)


class CollapsedStackTest(unittest.TestCase):
    def test_stacks_are_dag_paths_weighted_by_self_cycles(self):
        spans, _ = analyze.load(str(GOLDEN))
        traces = analyze.group_traces(spans)
        out = analyze.collapsed_stacks(traces)
        lines = dict(l.rsplit(" ", 1) for l in out.strip().splitlines())
        # Nested ecall: full ancestry path, weight = its own self cycles
        # (2 SGX * 10K + 28 normal-class / 1.8, rounded).
        self.assertEqual(
            int(lines["mbox:open_session;net:deliver;sgx:ecall"]), 20016
        )
        self.assertEqual(int(lines["mbox:open_session"]), 50556)
        # Zero-self spans (net:deliver) contribute no line of their own.
        self.assertNotIn("mbox:open_session;net:deliver", lines)


class SelfCheckTest(unittest.TestCase):
    def test_golden_trace_is_clean(self):
        errors = self_check(str(GOLDEN))
        self.assertEqual(errors, [])

    def test_cost_leak_is_detected(self):
        doc = load_golden_doc()
        doc["otherData"]["costTotal"]["crypto"] += 1
        with tempfile.TemporaryDirectory() as tmp:
            errors = self_check(write_doc(tmp, doc))
        self.assertTrue(any("cost accounting leak" in e for e in errors))

    def test_broken_parent_edge_is_detected(self):
        doc = load_golden_doc()
        for ev in doc["traceEvents"]:
            if ev.get("args", {}).get("span") == 2:
                ev["args"]["parent"] = 999  # orphan the delivery subtree
        with tempfile.TemporaryDirectory() as tmp:
            errors = self_check(write_doc(tmp, doc))
        self.assertTrue(any("roots" in e for e in errors))

    def test_self_exceeding_incl_is_detected(self):
        doc = load_golden_doc()
        for ev in doc["traceEvents"]:
            if ev.get("args", {}).get("span") == 2:
                ev["args"]["self"] = dict(
                    ev["args"]["incl"], trans=ev["args"]["incl"]["trans"] + 5
                )
        with tempfile.TemporaryDirectory() as tmp:
            errors = self_check(write_doc(tmp, doc))
        self.assertTrue(any("self.trans" in e for e in errors))

    def test_short_traces_skip_the_coverage_gate(self):
        # Trace 2 is 500us end-to-end with a dominant queueing gap; the
        # coverage check must not fire below the 1ms floor.
        errors = self_check(str(GOLDEN))
        self.assertFalse(any("trace 2" in e for e in errors))
        # Stretch it past 1ms (scale the timeline 10x) and the same shape
        # must now fail coverage.
        doc = load_golden_doc()
        for ev in doc["traceEvents"]:
            if ev.get("args", {}).get("trace") == 2:
                ev["ts"] = ev["ts"] * 10
                ev["dur"] = ev["dur"] * 10
        with tempfile.TemporaryDirectory() as tmp:
            errors = self_check(write_doc(tmp, doc))
        self.assertTrue(any("below 95.0%" in e for e in errors))


def compute_then_network_doc(compute_us):
    """A 1 ms trace: `compute_us` of compute on the root, then network."""
    return {"traceEvents": [
        {"name": "work", "cat": "app", "ph": "X", "ts": 0,
         "dur": compute_us, "pid": 1, "tid": 1,
         "args": {"trace": 1, "span": 1, "parent": 0,
                  "self": {"norm": 100}}},
        {"name": "deliver", "cat": "net", "ph": "X", "ts": compute_us,
         "dur": 1000 - compute_us, "pid": 1, "tid": 1,
         "args": {"trace": 1, "span": 2, "parent": 1}},
    ]}


class CoverageFloorTest(unittest.TestCase):
    def test_coverage_floor_is_95_percent(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.assertEqual(
                self_check(write_doc(tmp, compute_then_network_doc(40))), [])
            errors = self_check(write_doc(tmp, compute_then_network_doc(60)))
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("covers 94.00% of 1.000 ms, below 95.0%", errors[0])


class CliTest(unittest.TestCase):
    def test_exit_codes(self):
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, load_golden_doc())
            self.assertEqual(run_main([bundle, "--check"])[0], 0)
            self.assertEqual(run_main([bundle])[0], 0)
            self.assertEqual(run_main([bundle, "--trace-id", "1"])[0], 0)
            self.assertEqual(run_main([bundle, "--trace-id", "42"])[0], 1)
        doc = load_golden_doc()
        doc["otherData"]["costTotal"]["sgx"] += 3
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, doc)
            self.assertEqual(run_main([bundle, "--check"])[0], 1)

    def test_default_report_covers_every_trace_and_the_shards(self):
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main([write_bundle(tmp, load_golden_doc())])
        self.assertEqual(rc, 0, out)
        self.assertIn("trace 1: mbox:open_session  spans=3", out)
        self.assertIn("trace 2: tor:build_circuit  spans=4", out)
        # The golden trace has no shard tags: no shard rollup.
        self.assertNotIn("shard rollup", out)
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main([write_bundle(tmp, control_plane_doc())])
        self.assertEqual(rc, 0, out)
        self.assertIn("shard rollup", out)

    def test_collapsed_writes_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, load_golden_doc())
            out = pathlib.Path(tmp) / "stacks.txt"
            rc, _ = run_main([bundle, "--collapsed", str(out)])
            self.assertEqual(rc, 0)
            body = out.read_text()
            self.assertIn("mbox:open_session;net:deliver;sgx:ecall", body)
            for line in body.strip().splitlines():
                stack, weight = line.rsplit(" ", 1)
                self.assertTrue(int(weight) > 0, line)


if __name__ == "__main__":
    unittest.main()
