#!/usr/bin/env python3
"""Unit tests for the fleet half of the bundle analyzer (tools/analyze.py).

The anomaly rules gate the nightly controlplane-chaos drill, so they are
load-bearing: a clean drill (every SLO breach overlapping a reconstructed
fault window, all counters monotone, every outage healed) must pass, and
each anomaly class — unhealed kill, counter regression, unexplained
breach, broken orderings, a health report that does not match the
scrapes — must fail --check. So must a bundle that lists a file it does
not hold.

Fixtures are export bundles (src/telemetry/export.h): the golden trace,
synthetic events.jsonl and scrapes.jsonl in the C++ exporters' shapes
(EventLog::jsonl, Scraper::jsonl), a health report
(HealthModel::report_json) and the manifest. The SLO windows are computed
only by the C++ model; the window values here are the ones HealthModel
gives for the same scrapes (pinned in tests/telemetry/health_test.cpp,
HealthModel.WindowsCarryEveryScrapeWindowWithItsBreaches).

Run directly (ctest registers it with the tier1 label):
    python3 tests/tools/fleet_report_test.py
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
BUNDLE_FILES = ["trace.json", "metrics.json", "events.jsonl",
                "scrapes.jsonl", "health.json"]


def event(seq, ts_us, etype, node=0, a=0, b=0):
    return {"seq": seq, "ts_us": ts_us, "type": etype,
            "node": node, "a": a, "b": b}


def hist(buckets):
    """Sparse {floor: count} -> the exporter's histogram object."""
    count = sum(buckets.values())
    return {"count": count, "sum": 0, "min": 0, "max": 0,
            "p50": 0, "p90": 0, "p99": 0,
            "buckets": {str(k): v for k, v in buckets.items()}}


def scrape(seq, ts_us, counters=None, histograms=None):
    return {"seq": seq, "ts_us": ts_us,
            "metrics": {"counters": counters or {},
                        "gauges": {},
                        "histograms": histograms or {}}}


def slo_window(start_us, end_us, goodput, shards=None, breaches=()):
    """One record of the health report's `windows` array."""
    return {"start_us": start_us, "end_us": end_us, "goodput": goodput,
            "shards": shards or {}, "breaches": list(breaches)}


def hop_breach(shard, p99_us):
    return {"kind": "hop_latency", "shard": shard, "p99_us": p99_us}


def goodput_breach(goodput):
    return {"kind": "goodput", "shard": None, "goodput": goodput}


def health_report(windows, window_samples=8):
    """A HealthModel::report_json object (default SloPolicy)."""
    return {"ts_us": windows[-1]["end_us"] if windows else 0,
            "state": "healthy", "goodput": 1.0, "goodput_breached": False,
            "events": {"epc_pressure": 0, "run_cap_hits": 0, "rekeys": 0,
                       "partition_cuts": 0, "partition_heals": 0},
            "policy": {"p99_hop_latency_us": 5000, "goodput_floor": 0.5,
                       "heal_budget_ms": 400.0,
                       "window_samples": window_samples},
            "shards": [], "windows": windows}


def write_bundle(tmp, events, scrapes, health, trace=None):
    """Writes a full export bundle under `tmp`: the golden trace (or
    `trace`), the three fleet files and a manifest listing all five."""
    d = pathlib.Path(tmp)
    (d / "trace.json").write_text(
        GOLDEN.read_text() if trace is None else json.dumps(trace))
    (d / "metrics.json").write_text(
        '{"counters":{},"gauges":{},"histograms":{}}\n')
    (d / "events.jsonl").write_text(
        "".join(json.dumps(e) + "\n" for e in events))
    (d / "scrapes.jsonl").write_text(
        "".join(json.dumps(s) + "\n" for s in scrapes))
    (d / "health.json").write_text(json.dumps(health))
    (d / "manifest.json").write_text(json.dumps(
        {"bench": "bench_observability", "telemetry": True, "ndebug": True,
         "files": BUNDLE_FILES}))
    return d


def gap_then_network_trace(cost_key):
    """A 1 ms trace: 60 us of an enclave span whose whole self-cost is
    `cost_key`, then 940 us on the network."""
    return {"traceEvents": [
        {"name": "ecall", "cat": "sgx", "ph": "X", "ts": 0, "dur": 60,
         "pid": 1, "tid": 1,
         "args": {"trace": 1, "span": 1, "parent": 0,
                  "self": {cost_key: 25000}}},
        {"name": "deliver", "cat": "net", "ph": "X", "ts": 60, "dur": 940,
         "pid": 1, "tid": 1, "args": {"trace": 1, "span": 2, "parent": 1}},
    ], "displayTimeUnit": "ms"}


def analyze_dir(bundle, *args):
    """Runs analyze.main on `bundle`; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = analyze.main([str(bundle), *args])
    return rc, buf.getvalue()


def run_main(tmp, events, scrapes, health, extra_args=()):
    """Writes a bundle under `tmp` and runs analyze.main --check on it."""
    return analyze_dir(write_bundle(tmp, events, scrapes, health),
                       "--check", *extra_args)


def clean_drill():
    """A healed kill-one-shard drill: outage window, in-window latency
    spike (explained), recovery, all counters monotone. Returns (events,
    scrapes, health)."""
    events = [
        event(1, 1_000, "shard_down", node=0, a=2),
        event(2, 1_500, "failover_adopted", node=1, a=2, b=4),
        event(3, 90_000, "shard_up", node=0, a=2),
        event(4, 95_000, "snapshot_installed", node=2, a=2, b=12),
    ]
    scrapes = [
        scrape(0, 0, {"net.messages_sent": 10, "net.messages_delivered": 10,
                      "net.messages_dropped": 0},
               {"shard.s1.hop_latency_us": hist({"256": 20})}),
        # Mid-outage: hop p99 blows past the cap — explained by the window.
        scrape(1, 50_000,
               {"net.messages_sent": 40, "net.messages_delivered": 36,
                "net.messages_dropped": 4},
               {"shard.s1.hop_latency_us": hist({"256": 20, "8192": 30})}),
        scrape(2, 200_000,
               {"net.messages_sent": 80, "net.messages_delivered": 76,
                "net.messages_dropped": 4},
               {"shard.s1.hop_latency_us": hist({"256": 60, "8192": 30})}),
    ]
    health = health_report([
        slo_window(0, 50_000, 0.866667, {"1": {"p99_us": 16031, "hops": 30}},
                   [hop_breach(1, 16031)]),
        slo_window(0, 200_000, 0.942857,
                   {"1": {"p99_us": 15922, "hops": 70}},
                   [hop_breach(1, 15922)]),
    ])
    return events, scrapes, health


def goodput_drop():
    """Two scrapes over which 10 of 100 messages arrive and 90 are
    dropped: goodput 0.1."""
    scrapes = [
        scrape(0, 0, {"net.messages_sent": 10,
                      "net.messages_delivered": 10,
                      "net.messages_dropped": 0}),
        scrape(1, 50_000, {"net.messages_sent": 110,
                           "net.messages_delivered": 20,
                           "net.messages_dropped": 90}),
    ]
    health = health_report(
        [slo_window(0, 50_000, 0.1, breaches=[goodput_breach(0.1)])])
    return scrapes, health


class CleanDrillTest(unittest.TestCase):
    def test_clean_drill_passes_check(self):
        events, scrapes, health = clean_drill()
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, events, scrapes, health)
        self.assertEqual(rc, 0, out)
        self.assertIn("anomalies: none", out)
        self.assertIn("shard_outage", out)
        self.assertIn("slo windows: 2 evaluated, 2 breach(es)", out)

    def test_empty_inputs_pass(self):
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, [], [], health_report([]))
        self.assertEqual(rc, 0, out)

    def test_health_is_required(self):
        # The manifest lists health.json, so it must be there.
        events, scrapes, health = clean_drill()
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, events, scrapes, health)
            (bundle / "health.json").unlink()
            rc, out = analyze_dir(bundle)
        self.assertEqual(rc, 1, out)
        self.assertIn("FAIL: health.json", out)


class AnomalyTest(unittest.TestCase):
    def test_unhealed_kill_fails_check(self):
        events, scrapes, health = clean_drill()
        # Inject the kill: shard 3 goes down and never comes back.
        events.append(event(5, 210_000, "shard_down", node=0, a=3))
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, events, scrapes, health)
        self.assertEqual(rc, 1, out)
        self.assertIn("unhealed_shard_outage", out)
        self.assertIn("shard 3", out)

    def test_counter_regression_fails_check(self):
        events, scrapes, health = clean_drill()
        scrapes[2]["metrics"]["counters"]["net.messages_sent"] = 5  # < 40
        # The model reads a window whose sent count fell as goodput 1.0.
        health["windows"][1]["goodput"] = 1.0
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, events, scrapes, health)
        self.assertEqual(rc, 1, out)
        self.assertIn("counter_regression", out)
        self.assertIn("net.messages_sent", out)

    def test_unexplained_latency_breach_fails_check(self):
        # Same latency spike, but the event log records no fault at all.
        _, scrapes, health = clean_drill()
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, [], scrapes, health)
        self.assertEqual(rc, 1, out)
        self.assertIn("unexplained_slo_breach", out)
        self.assertIn("shard 1 p99 16031us", out)

    def test_unexplained_goodput_breach_fails_check(self):
        scrapes, health = goodput_drop()
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, [], scrapes, health)
        self.assertEqual(rc, 1, out)
        self.assertIn("unexplained_slo_breach", out)
        self.assertIn("goodput 0.100", out)

    def test_partition_window_explains_goodput_breach(self):
        events = [
            event(1, 0, "partition_cut", node=4, a=9),
            event(2, 60_000, "partition_heal", node=0),
        ]
        scrapes, health = goodput_drop()
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, events, scrapes, health)
        self.assertEqual(rc, 0, out)

    def test_broken_event_order_fails_check(self):
        events, scrapes, health = clean_drill()
        events[2]["seq"] = 1  # duplicate seq
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, events, scrapes, health)
        self.assertEqual(rc, 1, out)
        self.assertIn("broken_event_order", out)

    def test_broken_scrape_order_fails_check(self):
        events, scrapes, health = clean_drill()
        scrapes[2]["seq"] = 1  # duplicate seq
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, events, scrapes, health)
        self.assertEqual(rc, 1, out)
        self.assertIn("broken_scrape_order", out)


class HealthScrapeMatchTest(unittest.TestCase):
    """The health report must come from the run whose scrapes it is given
    with: its windows are exactly the scrapes' (base, tip) pairs."""

    def test_report_from_another_run_fails_check(self):
        events, scrapes, health = clean_drill()
        health["windows"][1]["end_us"] = 210_000
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, events, scrapes, health)
        self.assertEqual(rc, 1, out)
        self.assertIn("health_scrape_mismatch", out)
        self.assertIn("health window 1 spans [0, 210000]us", out)

    def test_report_without_windows_fails_check(self):
        events, scrapes, health = clean_drill()
        del health["windows"]  # a report from before windows existed
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, events, scrapes, health)
        self.assertEqual(rc, 1, out)
        self.assertIn("0 health windows for 2 scrape windows", out)

    def test_window_width_comes_from_the_policy(self):
        events, scrapes, health = clean_drill()
        # Two-scrape windows slide: the second starts at the first tip.
        health["policy"]["window_samples"] = 2
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, events, scrapes, health)
        self.assertEqual(rc, 1, out)
        self.assertIn("scrapes give [50000, 200000]us", out)
        health["windows"][1]["start_us"] = 50_000
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, events, scrapes, health)
        self.assertEqual(rc, 0, out)


class ReportJsonTest(unittest.TestCase):
    def test_out_writes_full_report(self):
        events, scrapes, health = clean_drill()
        with tempfile.TemporaryDirectory() as tmp:
            outpath = pathlib.Path(tmp) / "report.json"
            rc, _ = run_main(tmp, events, scrapes, health,
                             extra_args=["--out", str(outpath)])
            self.assertEqual(rc, 0)
            report = json.loads(outpath.read_text())
        self.assertEqual(report["event_total"], 4)
        self.assertEqual(report["scrape_total"], 3)
        self.assertEqual(report["anomalies"], [])
        self.assertEqual(len(report["fault_windows"]), 1)
        self.assertEqual(report["fault_windows"][0]["shard"], 2)
        self.assertEqual(report["event_counts"]["shard_down"], 1)
        # The SLO windows are the health report's, verbatim.
        self.assertEqual(report["slo_windows"], health["windows"])
        self.assertEqual(report["health"], health)

    def test_out_needs_the_fleet_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, *clean_drill())
            manifest = json.loads((bundle / "manifest.json").read_text())
            manifest["files"] = BUNDLE_FILES[:3]
            (bundle / "manifest.json").write_text(json.dumps(manifest))
            rc, out = analyze_dir(bundle, "--out",
                                  str(pathlib.Path(tmp) / "report.json"))
        self.assertEqual(rc, 1, out)


class BundleTest(unittest.TestCase):
    """One bundle, one report: the trace, the shard rollup and the fleet
    report come from the files the manifest lists, and nothing else."""

    def test_fixture_bundle_passes_check(self):
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = run_main(tmp, *clean_drill())
        self.assertEqual(rc, 0, out)
        self.assertIn("bundle ", out)
        self.assertIn("bench_observability, telemetry on, NDEBUG", out)
        self.assertIn("trace 1: mbox:open_session", out)
        self.assertIn("fleet report", out)
        self.assertIn("self-check: 2 traces, 7 spans, 0 violations", out)

    def test_missing_listed_file_fails_without_check(self):
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, *clean_drill())
            (bundle / "trace.json").unlink()
            rc, out = analyze_dir(bundle)
        self.assertEqual(rc, 1, out)
        self.assertIn("FAIL: trace.json", out)

    def test_unparsable_listed_file_fails_without_check(self):
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, *clean_drill())
            with open(bundle / "scrapes.jsonl", "a") as f:
                f.write("{not json\n")
            rc, out = analyze_dir(bundle)
        self.assertEqual(rc, 1, out)
        self.assertIn("FAIL: scrapes.jsonl: line 4", out)

    def test_missing_manifest_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, *clean_drill())
            (bundle / "manifest.json").unlink()
            rc, out = analyze_dir(bundle)
        self.assertEqual(rc, 1, out)
        self.assertIn("FAIL: manifest.json", out)

    def test_bad_cost_total_fails_check(self):
        trace = json.loads(GOLDEN.read_text())
        trace["otherData"]["costTotal"]["crypto"] += 1
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, *clean_drill(), trace=trace)
            self.assertEqual(analyze_dir(bundle)[0], 0)
            rc, out = analyze_dir(bundle, "--check")
        self.assertEqual(rc, 1, out)
        self.assertIn("cost accounting leak in 'crypto'", out)

    def test_unexplained_breach_fails_check(self):
        _, scrapes, health = clean_drill()
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, [], scrapes, health)
            self.assertEqual(analyze_dir(bundle)[0], 0)
            rc, out = analyze_dir(bundle, "--check")
        self.assertEqual(rc, 1, out)
        self.assertIn("unexplained_slo_breach", out)

    def test_telemetry_on_bundle_needs_a_span(self):
        empty = {"traceEvents": [], "displayTimeUnit": "ms"}
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, *clean_drill(), trace=empty)
            rc, out = analyze_dir(bundle)
            self.assertEqual(rc, 1, out)
            self.assertIn("holds no span", out)
            # Telemetry compiled out: an empty trace is what the run made.
            manifest = json.loads((bundle / "manifest.json").read_text())
            manifest["telemetry"] = False
            (bundle / "manifest.json").write_text(json.dumps(manifest))
            self.assertEqual(analyze_dir(bundle)[0], 0)

    def test_paging_only_gap_passes_check(self):
        # 6% of a 1 ms trace is EAUG paging on the enclave side: a modeled
        # part, so the trace is still explained.
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, *clean_drill(),
                                  trace=gap_then_network_trace("paging"))
            rc, out = analyze_dir(bundle, "--check")
        self.assertEqual(rc, 0, out)
        self.assertIn("paging            60.0 us    6.00%", out)

    def test_compute_only_gap_fails_check(self):
        # The same 6%, as unmodeled compute: below the 95% floor.
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, *clean_drill(),
                                  trace=gap_then_network_trace("norm"))
            rc, out = analyze_dir(bundle, "--check")
        self.assertEqual(rc, 1, out)
        self.assertIn("covers 94.00% of 1.000 ms, below 95.0%", out)

    def test_unlisted_file_is_not_read(self):
        # A leftover from an earlier export into the same directory: not
        # in the manifest, so neither parsed nor reported.
        with tempfile.TemporaryDirectory() as tmp:
            bundle = write_bundle(tmp, *clean_drill())
            manifest = json.loads((bundle / "manifest.json").read_text())
            manifest["files"] = BUNDLE_FILES[:3]
            (bundle / "manifest.json").write_text(json.dumps(manifest))
            (bundle / "scrapes.jsonl").write_text("{not json\n")
            rc, out = analyze_dir(bundle, "--check")
        self.assertEqual(rc, 0, out)
        self.assertNotIn("fleet report", out)


if __name__ == "__main__":
    unittest.main()
