// Scheduler-equivalence and scale coverage for the internet-scale event
// engine (DESIGN.md §12).
//
//  * EngineParity / ScaleSweep: the same seeded chaos workload — tens of
//    thousands of mixed messages and timers with cancellations, loss,
//    duplication, reordering and jitter faults — runs through the new
//    calendar-queue engine and the preserved pre-rewrite engine
//    (netsim/reference_sim.h). Every delivery (timestamp, src, dst,
//    port, size), every timer fire, every cancel result, all statistics
//    and fault counters must match event-for-event: the old (time, seq)
//    order semantics are the specification.
//  * RunCap: the explicit run() safety cap — configurable, counted,
//    never a silent truncation.
//  * TimerGc: cancelled timers free their captures immediately instead
//    of lingering until the queue entry drains.
//  * TraceAtScale: same-seed byte-identical Chrome-trace exports from a
//    larger-than-paper Tor deployment, switchless off and on.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "netsim/reference_sim.h"
#include "netsim/sim.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "tor/network.h"

namespace tenet {
namespace {

// ---------------------------------------------------------------------
// The differential chaos workload, templated over the engine so both
// simulators execute byte-for-byte the same scenario code.

/// One observable step: a delivery, a timer fire, or a cancel verdict.
/// kind: 0 = delivery, 1 = timer fire, 2 = cancel result.
using Record = std::tuple<int, double, uint64_t, uint64_t, uint64_t, uint64_t>;

struct WorkloadResult {
  std::vector<Record> sequence;
  size_t run_events = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  double end_time = 0;
  netsim::FaultCounters faults;
};

template <typename SimT, typename NodeT>
WorkloadResult run_chaos_workload(size_t n_nodes, size_t n_messages,
                                  size_t n_timers, uint64_t seed) {
  struct Hopper final : NodeT {
    Hopper(SimT& s, std::string n, std::vector<Record>* seq, size_t n_nodes)
        : NodeT(s, std::move(n)), seq(seq), n(n_nodes) {}
    void handle_message(const netsim::Message& m) override {
      seq->emplace_back(0, this->sim().now(), m.src, m.dst, m.port,
                        m.payload.size());
      if (!m.payload.empty() && m.payload[0] > 0) {
        crypto::Bytes fwd(m.payload);
        fwd[0] -= 1;
        const netsim::NodeId next = static_cast<netsim::NodeId>(
            1 + (m.src * 31 + m.port * 7 + fwd[0]) % n);
        this->send(next, m.port + 1, std::move(fwd));
      }
    }
    std::vector<Record>* seq;
    size_t n;
  };

  WorkloadResult out;
  SimT sim(seed);
  std::vector<std::unique_ptr<Hopper>> nodes;
  nodes.reserve(n_nodes);
  for (size_t i = 0; i < n_nodes; ++i) {
    nodes.push_back(std::make_unique<Hopper>(sim, "n" + std::to_string(i),
                                             &out.sequence, n_nodes));
  }

  // Chaos knobs: defaults plus per-link overrides plus outage windows.
  // Setup draws come from a workload DRBG separate from the sim's, so
  // both engines see identical plans and identical sim-DRBG streams.
  crypto::Drbg wl = crypto::Drbg::from_label(seed, "test.scale.workload");
  netsim::LinkFaults defaults;
  defaults.loss = 0.02;
  defaults.duplicate = 0.04;
  defaults.reorder = 0.06;
  defaults.jitter = 0.0015;
  sim.fault_plan().set_default(defaults);
  for (size_t i = 0; i < n_nodes / 4; ++i) {
    netsim::LinkFaults lf;
    lf.duplicate = wl.uniform_real() * 0.2;
    lf.jitter = wl.uniform_real() * 0.002;
    const auto a = static_cast<netsim::NodeId>(1 + i);
    const auto b = static_cast<netsim::NodeId>(
        1 + (i * 7 + 3) % n_nodes);
    sim.fault_plan().set_link(a, b, lf);
    sim.fault_plan().add_link_window(b, a, wl.uniform_real() * 0.01,
                                     0.01 + wl.uniform_real() * 0.01);
  }
  for (size_t i = 0; i < n_nodes / 8; ++i) {
    const auto v = static_cast<netsim::NodeId>(1 + (i * 5) % n_nodes);
    sim.fault_plan().add_node_window(v, wl.uniform_real() * 0.02,
                                     0.02 + wl.uniform_real() * 0.02);
  }
  for (size_t i = 0; i < n_nodes; ++i) {
    sim.set_latency(static_cast<netsim::NodeId>(1 + i),
                    static_cast<netsim::NodeId>(1 + (i * 3 + 1) % n_nodes),
                    0.0005 + wl.uniform_real() * 0.005);
  }
  sim.fault_plan().set_link(1, static_cast<netsim::NodeId>(n_nodes),
                            {.loss = 0.1});

  // Timers: chains that record fires, victims cancelled mid-run by
  // killer timers, and immediate schedule-then-cancel pairs. Cancel
  // verdicts are part of the observable sequence.
  std::vector<netsim::TimerId> victims;
  auto* seq = &out.sequence;
  for (size_t t = 0; t < n_timers; ++t) {
    const double delay = wl.uniform_real() * 0.05;
    const auto owner = static_cast<netsim::NodeId>(1 + t % n_nodes);
    const uint64_t tag = t;
    switch (t % 4) {
      case 0:  // plain fire
        sim.schedule_timer(delay, owner, [seq, &sim, tag] {
          seq->emplace_back(1, sim.now(), tag, 0, 0, 0);
        });
        break;
      case 1:  // victim: may be cancelled by a later killer
        victims.push_back(sim.schedule_timer(delay + 0.02, owner,
                                             [seq, &sim, tag] {
                                               seq->emplace_back(
                                                   1, sim.now(), tag, 0, 0, 0);
                                             }));
        break;
      case 2: {  // killer: cancels a victim when it fires
        const size_t idx = victims.empty() ? 0 : (t / 4) % victims.size();
        sim.schedule_timer(delay, owner, [seq, &sim, &victims, idx, tag] {
          const bool ok =
              !victims.empty() && sim.cancel_timer(victims[idx]);
          seq->emplace_back(2, sim.now(), tag, ok ? 1 : 0, 0, 0);
        });
        break;
      }
      default: {  // schedule + immediate cancel (+ a double cancel)
        const netsim::TimerId id = sim.schedule_timer(
            delay, owner,
            [seq, &sim, tag] { seq->emplace_back(1, sim.now(), tag, 0, 0, 0); });
        const uint64_t first_cancel = sim.cancel_timer(id) ? 1 : 0;
        const uint64_t second_cancel = sim.cancel_timer(id) ? 1 : 0;
        out.sequence.emplace_back(2, sim.now(), tag, first_cancel,
                                  second_cancel, 0);
        break;
      }
    }
  }

  // Messages: multi-hop chains; payload[0] is the remaining hop budget,
  // so each seed message fans into a bounded cascade.
  for (size_t m = 0; m < n_messages; ++m) {
    crypto::Bytes payload;
    payload.push_back(static_cast<uint8_t>(m % 5));  // up to 4 forwards
    const size_t extra = static_cast<size_t>(wl.uniform_real() * 600);
    payload.resize(1 + extra, static_cast<uint8_t>(m & 0xff));
    const auto src = static_cast<netsim::NodeId>(1 + m % n_nodes);
    const auto dst = static_cast<netsim::NodeId>(1 + (m * 13 + 5) % n_nodes);
    sim.post(netsim::Message{src, dst, static_cast<uint32_t>(m % 100),
                             std::move(payload)});
  }

  if constexpr (requires { sim.set_run_cap(0); }) {
    sim.set_run_cap(0);
    out.run_events = sim.run();
  } else {
    out.run_events = sim.run(100'000'000);
  }
  out.delivered = sim.total_messages_delivered();
  out.dropped = sim.messages_dropped();
  out.end_time = sim.now();
  out.faults = sim.fault_plan().counters();
  EXPECT_EQ(sim.pending_events(), 0u);
  return out;
}

void expect_workloads_equal(const WorkloadResult& a, const WorkloadResult& b) {
  EXPECT_EQ(a.run_events, b.run_events);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.end_time, b.end_time);  // bitwise: same FP expression order
  EXPECT_EQ(a.faults.lost, b.faults.lost);
  EXPECT_EQ(a.faults.duplicated, b.faults.duplicated);
  EXPECT_EQ(a.faults.reordered, b.faults.reordered);
  EXPECT_EQ(a.faults.jittered, b.faults.jittered);
  EXPECT_EQ(a.faults.window_dropped, b.faults.window_dropped);
  ASSERT_EQ(a.sequence.size(), b.sequence.size());
  for (size_t i = 0; i < a.sequence.size(); ++i) {
    ASSERT_EQ(a.sequence[i], b.sequence[i]) << "first divergence at step " << i;
  }
}

WorkloadResult run_new(size_t nodes, size_t msgs, size_t timers,
                       uint64_t seed) {
  return run_chaos_workload<netsim::Simulator, netsim::Node>(nodes, msgs,
                                                             timers, seed);
}

WorkloadResult run_reference(size_t nodes, size_t msgs, size_t timers,
                             uint64_t seed) {
  return run_chaos_workload<netsim::refsim::Simulator, netsim::refsim::Node>(
      nodes, msgs, timers, seed);
}

TEST(EngineParity, MixedChaosWorkloadMatchesReferenceEngine) {
  const WorkloadResult neu = run_new(40, 3000, 1200, 77);
  const WorkloadResult ref = run_reference(40, 3000, 1200, 77);
  EXPECT_GT(neu.run_events, 6000u);  // cascades actually fanned out
  expect_workloads_equal(neu, ref);
}

TEST(EngineParity, DifferentSeedsDiverge) {
  // Sanity check that the harness can detect differences at all.
  const WorkloadResult a = run_new(20, 400, 100, 1);
  const WorkloadResult b = run_new(20, 400, 100, 2);
  EXPECT_NE(a.sequence, b.sequence);
}

TEST(EngineParity, SameSeedIsBitwiseRepeatable) {
  const WorkloadResult a = run_new(30, 1000, 400, 9);
  const WorkloadResult b = run_new(30, 1000, 400, 9);
  expect_workloads_equal(a, b);
}

// The 100k-event property sweep (slow label; the fast gate runs the
// smaller parity cases above).
TEST(ScaleSweep, HundredThousandMixedEventsMatchReferenceEngine) {
  for (const uint64_t seed : {2015u, 4242u, 31337u}) {
    const WorkloadResult neu = run_new(120, 22'000, 8'000, seed);
    const WorkloadResult ref = run_reference(120, 22'000, 8'000, seed);
    EXPECT_GT(neu.run_events, 50'000u);
    expect_workloads_equal(neu, ref);
  }
}

// ---------------------------------------------------------------------

class Sink final : public netsim::Node {
 public:
  using Node::Node;
  void handle_message(const netsim::Message&) override { ++received; }
  size_t received = 0;
};

TEST(RunCap, ConfiguredCapIsUsedByDefaultRun) {
  netsim::Simulator sim;
  Sink a(sim, "a"), b(sim, "b");
  for (int i = 0; i < 20; ++i) a.send(b.id(), 1, {});
  sim.set_run_cap(10);
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(RunCap, ZeroCapMeansUnlimited) {
  netsim::Simulator sim;
  Sink a(sim, "a"), b(sim, "b");
  for (int i = 0; i < 50; ++i) a.send(b.id(), 1, {});
  sim.set_run_cap(0);
  EXPECT_EQ(sim.run(), 50u);
  EXPECT_EQ(b.received, 50u);
}

TEST(RunCap, ExplicitArgumentOverridesConfiguredCap) {
  netsim::Simulator sim;
  Sink a(sim, "a"), b(sim, "b");
  for (int i = 0; i < 5; ++i) a.send(b.id(), 1, {});
  sim.set_run_cap(1);
  EXPECT_EQ(sim.run(100), 5u);  // explicit cap wins; no throw
}

#if TENET_TELEMETRY_ENABLED
TEST(RunCap, CapHitBumpsCounter) {
  telemetry::set_enabled(true);
  auto& counter = telemetry::registry().counter("net.run.cap_hit");
  const uint64_t before = counter.value();
  netsim::Simulator sim;
  Sink a(sim, "a"), b(sim, "b");
  for (int i = 0; i < 20; ++i) a.send(b.id(), 1, {});
  EXPECT_THROW(sim.run(4), std::runtime_error);
  EXPECT_EQ(counter.value(), before + 1);
  telemetry::set_enabled(false);
}
#endif

TEST(TimerGc, CancelReleasesCapturesImmediately) {
  netsim::Simulator sim;
  auto token = std::make_shared<int>(42);
  const netsim::TimerId id =
      sim.schedule_timer(10.0, netsim::kInvalidNode, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(sim.cancel_timer(id));
  // The capture is destroyed at cancel time — not when the (still
  // queued) cancelled entry eventually drains.
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.pending_events(), 1u);  // entry still counted until drained
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(TimerGc, FiredTimerReleasesCaptures) {
  netsim::Simulator sim;
  auto token = std::make_shared<int>(7);
  sim.schedule_timer(0.001, netsim::kInvalidNode, [token] { (void)*token; });
  sim.run();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(TimerGc, StaleIdAfterSlotReuseIsRejected) {
  netsim::Simulator sim;
  bool second_fired = false;
  const netsim::TimerId first =
      sim.schedule_timer(0.001, netsim::kInvalidNode, [] {});
  sim.run();  // first fires; its pool slot is recycled
  const netsim::TimerId second = sim.schedule_timer(
      0.001, netsim::kInvalidNode, [&second_fired] { second_fired = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.cancel_timer(first));  // stale generation: no effect
  sim.run();
  EXPECT_TRUE(second_fired);  // the recycled slot's new timer survived
}

// ---------------------------------------------------------------------

#if TENET_TELEMETRY_ENABLED
/// Same-seed byte-identical trace exports at larger-than-paper scale,
/// in both transition modes (satellite of DESIGN.md §12; extends the
/// §11 determinism contract to the new engine).
std::string traced_tor_run(bool switchless) {
  telemetry::set_enabled(true);
  telemetry::tracer().reset();
  tor::TorNetworkConfig cfg;
  cfg.phase = tor::Phase::kSgxRelays;
  cfg.n_authorities = 3;
  cfg.n_relays = 9;
  cfg.n_clients = 2;
  cfg.switchless = switchless;
  std::string json;
  {
    tor::TorNetwork net(cfg);
    const std::vector<size_t> auths{0, 1, 2};
    // Phase-2 bring-up: attested authority mesh, auto-admission after
    // relay attestation — no manual approvals.
    net.attest_authority_mesh(auths);
    net.publish_descriptors(auths);
    net.run_vote(1, auths);
    EXPECT_TRUE(net.fetch_consensus(0, net.authority(0).id()));
    EXPECT_TRUE(net.build_circuit(0, net.relay(0).id(), net.relay(4).id(),
                                  net.relay(8).id()));
    EXPECT_TRUE(net.request(0, "scale probe").has_value());
    json = telemetry::tracer().chrome_json();
  }
  telemetry::set_enabled(false);
  telemetry::tracer().reset();
  return json;
}

TEST(TraceAtScale, SameSeedExportsAreByteIdenticalPerSwitchlessMode) {
  // First run in a process pays one-time crypto precomputation (cached
  // group contexts, fixed-base DH tables) that lands in span costs; a
  // warmup makes the compared runs cache-identical.
  (void)traced_tor_run(false);
  for (const bool switchless : {false, true}) {
    const std::string first = traced_tor_run(switchless);
    const std::string second = traced_tor_run(switchless);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second)
        << "switchless=" << switchless << " export not reproducible";
  }
}
#endif

}  // namespace
}  // namespace tenet
