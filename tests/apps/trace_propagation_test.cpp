// Causal-tracing propagation invariants (DESIGN.md §11), end-to-end:
//
//   * Determinism: a fixed seed produces a byte-identical Chrome-trace
//     export on every replay — ids, timestamps and cost deltas included.
//   * Transition-transparency: switchless on vs. off yields the same
//     span DAG shape once transition-layer (sgx/epc) spans are
//     contracted; only who-ran-when and the deferred flags differ.
//   * Retransmissions stay in their request: a retransmitted attestation
//     challenge carries the original trace id plus the retx flag.
//   * Exact attribution: span self-costs plus the untraced remainder
//     reproduce the cost-model totals of every node, to the instruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/node.h"
#include "core/open_project.h"
#include "core/ports.h"
#include "mbox/scenario.h"
#include "telemetry/scrape.h"
#include "telemetry/trace.h"
#include "tor/network.h"

#if TENET_TELEMETRY_ENABLED

namespace tenet {
namespace {

using telemetry::TraceContext;
using telemetry::Tracer;

/// Everything captured from one traced scenario run, copied out before
/// the simulator (and its tracer clock) goes away.
struct TraceRun {
  std::string json;
  std::vector<Tracer::Event> events;
  telemetry::TraceCost total;
  telemetry::TraceCost untraced;
  sgx::CostModel::Snapshot nodes;  // summed over every platform
};

class TracingOn {
 public:
  TracingOn() {
    telemetry::set_enabled(true);
    telemetry::tracer().reset();
  }
  ~TracingOn() {
    telemetry::set_enabled(false);
    telemetry::tracer().reset();
  }
};

void capture(TraceRun& r) {
  r.json = telemetry::tracer().chrome_json();
  r.events = telemetry::tracer().events();
  r.total = telemetry::tracer().cost_total();
  r.untraced = telemetry::tracer().cost_untraced();
}

TraceRun run_mbox(bool switchless) {
  TracingOn guard;
  TraceRun r;
  mbox::MboxScenarioConfig cfg;
  cfg.n_middleboxes = 2;
  cfg.patterns = {"ATTACK"};
  cfg.switchless = switchless;
  mbox::MboxDeployment dep(cfg);
  const uint32_t sid = dep.open_session();
  EXPECT_TRUE(dep.established(sid));
  dep.provision_from_client(sid);
  dep.provision_from_server(sid);
  dep.send(sid, "hello middleboxes");
  dep.send(sid, "an ATTACK mid-stream");
  for (core::EnclaveNode* node :
       {&dep.client_node(), &dep.server_node(), &dep.mbox_node(0),
        &dep.mbox_node(1)}) {
    r.nodes.add(node->cost_snapshot());
  }
  capture(r);
  return r;
}

TraceRun run_tor() {
  TracingOn guard;
  TraceRun r;
  tor::TorNetworkConfig cfg;
  cfg.phase = tor::Phase::kBaseline;
  cfg.n_authorities = 3;
  cfg.n_relays = 3;
  cfg.n_clients = 1;
  tor::TorNetwork net(cfg);
  std::vector<size_t> auths{0, 1, 2};
  net.publish_descriptors(auths);
  for (const size_t i : auths) net.approve_all_pending(i);
  net.run_vote(1, auths);
  EXPECT_TRUE(net.fetch_consensus(0, net.authority(0).id()));
  EXPECT_TRUE(net.build_circuit(0, net.relay(0).id(), net.relay(1).id(),
                                net.relay(2).id()));
  const auto response = net.request(0, "trace probe");
  EXPECT_TRUE(response.has_value());
  capture(r);
  return r;
}

/// Per-trace root-to-leaf label paths with transition-layer (sgx/epc)
/// spans contracted out — the switchless-invariant DAG shape. Returns
/// one sorted path bundle per trace, sorted, so the comparison is
/// independent of trace/span id numbering.
std::vector<std::string> dag_shape(const std::vector<Tracer::Event>& events) {
  std::map<uint64_t, std::vector<const Tracer::Event*>> traces;
  for (const auto& e : events) {
    if (e.span_id != 0 && e.trace_id != 0) traces[e.trace_id].push_back(&e);
  }
  std::vector<std::string> shapes;
  for (auto& [tid, spans] : traces) {
    std::map<uint64_t, const Tracer::Event*> by_id;
    std::map<uint64_t, std::vector<const Tracer::Event*>> children;
    for (const auto* e : spans) by_id[e->span_id] = e;
    std::vector<const Tracer::Event*> roots;
    for (const auto* e : spans) {
      if (by_id.count(e->parent_span_id) != 0) {
        children[e->parent_span_id].push_back(e);
      } else {
        roots.push_back(e);
      }
    }
    std::vector<std::string> paths;
    // Iterative DFS, path carried alongside.
    std::vector<std::pair<const Tracer::Event*, std::string>> stack;
    for (const auto* root : roots) stack.emplace_back(root, "");
    while (!stack.empty()) {
      auto [e, prefix] = stack.back();
      stack.pop_back();
      const std::string cat = e->cat;
      std::string path = prefix;
      if (cat != "sgx" && cat != "epc") {  // contract transition spans
        if (!path.empty()) path += ';';
        path += cat + ":" + e->name;
      }
      const auto kids = children.find(e->span_id);
      if (kids == children.end()) {
        if (!path.empty()) paths.push_back(path);
        continue;
      }
      for (const auto* kid : kids->second) stack.emplace_back(kid, path);
    }
    std::sort(paths.begin(), paths.end());
    std::string bundle;
    for (const auto& p : paths) {
      bundle += p;
      bundle += '\n';
    }
    shapes.push_back(std::move(bundle));
  }
  std::sort(shapes.begin(), shapes.end());
  return shapes;
}

// --- Determinism -------------------------------------------------------

// The first run in a process pays one-time crypto precomputation (cached
// group contexts, fixed-base DH tables) whose work lands in that run's
// span costs; a warmup run makes the compared runs cache-identical, the
// same steady state every fresh process converges to.

TEST(TraceReplay, MboxExportIsByteIdenticalAcrossRuns) {
  (void)run_mbox(false);  // warmup: build process-global crypto caches
  const TraceRun a = run_mbox(false);
  const TraceRun b = run_mbox(false);
  ASSERT_FALSE(a.events.empty());
  EXPECT_EQ(a.json, b.json);
}

TEST(TraceReplay, TorExportIsByteIdenticalAcrossRuns) {
  (void)run_tor();  // warmup: build process-global crypto caches
  const TraceRun a = run_tor();
  const TraceRun b = run_tor();
  ASSERT_FALSE(a.events.empty());
  EXPECT_EQ(a.json, b.json);
}

// --- Switchless transparency ------------------------------------------

TEST(TraceReplay, SwitchlessOnOffSameDagShape) {
  const TraceRun sync = run_mbox(false);
  const TraceRun swl = run_mbox(true);
  const auto sync_shape = dag_shape(sync.events);
  const auto swl_shape = dag_shape(swl.events);
  ASSERT_FALSE(sync_shape.empty());
  EXPECT_EQ(sync_shape, swl_shape);
  // Deferral is visible only as a flag: spans causally downstream of a
  // ring-deferred ocall carry kFlagDeferred in the switchless run and
  // never in the synchronous one.
  const auto deferred = [](const TraceRun& r) {
    size_t n = 0;
    for (const auto& e : r.events) {
      if ((e.flags & TraceContext::kFlagDeferred) != 0) ++n;
    }
    return n;
  };
  EXPECT_EQ(deferred(sync), 0u);
  EXPECT_GT(deferred(swl), 0u);
}

// --- Retransmission ----------------------------------------------------

/// Minimal recoverable app so connect_to exercises the attestation retry
/// path (mirrors tests/core/recovery_test.cpp's world).
class PingApp final : public core::SecureApp {
 public:
  using SecureApp::SecureApp;
  void on_secure_message(core::Ctx&, netsim::NodeId,
                         crypto::BytesView) override {}
};

TEST(TraceReplay, RetransmissionKeepsOriginalTraceWithRetxFlag) {
  TracingOn guard;
  netsim::Simulator sim(/*seed=*/1);
  sgx::Authority authority;
  core::OpenProject project("traceping", "tenet traceping v1\n", nullptr);
  const sgx::AttestationConfig acfg = project.policy();
  sgx::EnclaveImage image = project.build();
  const sgx::Authority* auth = &authority;
  image.factory = [auth, acfg] {
    auto app = std::make_unique<PingApp>(*auth, acfg);
    app->enable_recovery(netsim::RetryPolicy{});
    return app;
  };
  core::EnclaveNode a(sim, authority, "tp-a", project.foundation(), image);
  core::EnclaveNode b(sim, authority, "tp-b", project.foundation(), image);
  a.start();
  b.start();

  struct Tap {
    uint64_t trace_id;
    uint8_t flags;
  };
  std::vector<Tap> challenges;
  sim.set_wiretap([&](const netsim::Message& m) {
    if (m.port == core::kPortAttestChallenge) {
      challenges.push_back(Tap{m.trace.trace_id, m.trace.flags});
    }
  });

  // First challenge dies on a cut link; the backoff retransmission goes
  // through after the heal.
  sim.fault_plan().set_link(a.id(), b.id(), {.loss = 1});
  a.connect_to(b.id());
  sim.fault_plan().set_link(a.id(), b.id(), {});
  sim.run();

  ASSERT_GE(challenges.size(), 2u);
  // Every challenge frame of this connect belongs to one trace, minted
  // at the request origin.
  EXPECT_NE(challenges[0].trace_id, 0u);
  for (const Tap& t : challenges) {
    EXPECT_EQ(t.trace_id, challenges[0].trace_id);
  }
  // The original is unflagged; the retransmissions are marked.
  EXPECT_EQ(challenges[0].flags & TraceContext::kFlagRetx, 0);
  size_t retx = 0;
  for (size_t i = 1; i < challenges.size(); ++i) {
    if ((challenges[i].flags & TraceContext::kFlagRetx) != 0) ++retx;
  }
  EXPECT_GE(retx, 1u);
}

// --- Exact cost attribution -------------------------------------------

TEST(TraceCosts, SpanSelfsPlusUntracedMatchCostModelTotals) {
  const TraceRun r = run_mbox(true);
  // Tracer-internal identity: span selfs + untraced == grand total.
  telemetry::TraceCost sum = r.untraced;
  for (const auto& e : r.events) sum.add(e.self);
  EXPECT_EQ(sum, r.total);
  ASSERT_TRUE(r.total.any());

  // Cross-check against the independent per-node cost models: every SGX
  // instruction, transition and normal-instruction charge mirrored into
  // the trace landed exactly once. The models fold crypto work and page
  // zeroing into normal_instructions(); the tracer keeps them as separate
  // attribution columns.
  EXPECT_EQ(r.total.sgx_user, r.nodes.sgx_user);
  EXPECT_EQ(r.total.sgx_priv, r.nodes.sgx_priv);
  EXPECT_EQ(r.total.transitions, r.nodes.transitions);
  EXPECT_EQ(r.total.normal + r.total.crypto + r.total.paging,
            r.nodes.normal);
}

TEST(TraceCosts, EveryTraceHasOneConnectedDag) {
  const TraceRun r = run_mbox(false);
  std::map<uint64_t, std::vector<const Tracer::Event*>> traces;
  for (const auto& e : r.events) {
    if (e.span_id != 0 && e.trace_id != 0) traces[e.trace_id].push_back(&e);
  }
  ASSERT_FALSE(traces.empty());
  for (const auto& [tid, spans] : traces) {
    std::map<uint64_t, const Tracer::Event*> by_id;
    for (const auto* e : spans) by_id[e->span_id] = e;
    size_t roots = 0;
    for (const auto* e : spans) {
      if (by_id.count(e->parent_span_id) == 0) ++roots;
    }
    EXPECT_EQ(roots, 1u) << "trace " << tid << " with " << spans.size()
                         << " spans";
  }
}

// --- Scraper on the virtual clock --------------------------------------

TEST(Scrape, SimulatorScrapesAtVirtualPeriodBoundaries) {
  TracingOn guard;
  telemetry::Scraper scraper;
  netsim::Simulator sim(/*seed=*/3);
  sim.attach_scraper(&scraper, /*period=*/0.001);
  int fired = 0;
  sim.schedule_timer(0.0052, netsim::kInvalidNode, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // Boundaries 0..5 ms inclusive were crossed by the single event.
  EXPECT_EQ(scraper.total_scrapes(), 6u);
  const std::string jsonl = scraper.jsonl();
  EXPECT_NE(jsonl.find("\"ts_us\":0,"), std::string::npos);
  EXPECT_NE(jsonl.find("\"ts_us\":5000,"), std::string::npos);
  // A quiescent simulator takes no further samples; detaching is safe.
  sim.attach_scraper(nullptr);
  EXPECT_THROW(sim.attach_scraper(&scraper, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace tenet

#endif  // TENET_TELEMETRY_ENABLED
