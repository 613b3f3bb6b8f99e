// Fleet observability end-to-end (DESIGN.md §16), exercised over a real
// sharded chaos drill: kill one shard of a replicated routing control
// plane mid-run, let the survivors fail over, then heal it.
//
//   * Exact tiling: control-plane span selfs plus the untraced remainder
//     reproduce the tracer's grand totals AND the independent per-node
//     cost models, to the instruction — across the enclave kill/restart.
//   * Attribution: replication / state_transfer / failover spans appear,
//     each tagged with the emitting shard id.
//   * Event log: the drill emits the expected fleet events (shard down,
//     failover adoption, snapshot install, shard up), the ring stays
//     consistent, and a same-seed replay is byte-identical JSONL.
//   * Health model: the victim shard reads failed while down — with the
//     outage attributed — and is serving again after the heal.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "routing/scenario.h"
#include "telemetry/events.h"
#include "telemetry/health.h"
#include "telemetry/scrape.h"
#include "telemetry/trace.h"

#if TENET_TELEMETRY_ENABLED

namespace tenet {
namespace {

using telemetry::EventType;
using telemetry::Tracer;

class TracingOn {
 public:
  TracingOn() {
    telemetry::set_enabled(true);
    telemetry::tracer().reset();
    telemetry::event_log().clear();
  }
  ~TracingOn() {
    telemetry::set_enabled(false);
    telemetry::tracer().reset();
    telemetry::event_log().clear();
  }
};

/// Everything captured from one traced chaos drill, copied out before the
/// deployment (and the tracer's virtual clock) goes away.
struct DrillRun {
  std::vector<Tracer::Event> spans;
  telemetry::TraceCost total;
  telemetry::TraceCost untraced;
  sgx::CostModel::Snapshot nodes;  // summed over every platform
  std::string events_jsonl;
  uint64_t shard_down = 0;
  uint64_t shard_up = 0;
  uint64_t failovers = 0;
  uint64_t snapshots = 0;
  uint64_t hops_recorded = 0;  // Σ per-shard hop-latency histogram counts
  bool log_consistent = false;
  telemetry::FleetHealth mid;  // evaluated while the victim was down
  telemetry::FleetHealth end;  // evaluated after the heal settled
  uint32_t victim = 0;
};

DrillRun run_chaos_drill() {
  TracingOn guard;
  DrillRun r;
  telemetry::Scraper scraper;
  routing::ScenarioConfig cfg;
  cfg.n_ases = 12;
  cfg.seed = 5;
  cfg.shards = 3;
  cfg.robust = true;  // ASes re-attest + re-submit after failover on their own
  routing::RoutingDeployment dep(cfg);
  dep.sim().attach_scraper(&scraper, /*period=*/0.01);
  dep.run_attestation_phase();
  dep.run_routing_phase();

  // Kill a non-owner shard that actually fronts at least one AS, so the
  // drill moves real clients and real admitted state.
  size_t victim = 0;
  for (size_t s = 1; s < dep.shard_count() && victim == 0; ++s) {
    for (const auto& [asn, policy] : dep.policies()) {
      if (dep.shard_of_as(asn) == s) {
        victim = s;
        break;
      }
    }
  }
  EXPECT_NE(victim, 0u) << "no extra shard fronts an AS at this seed";
  r.victim = static_cast<uint32_t>(victim);

  EXPECT_TRUE(dep.kill_shard(victim));
  dep.sim().run();
  const telemetry::HealthModel model;
  r.mid = model.evaluate(scraper, telemetry::event_log());

  EXPECT_TRUE(dep.heal_shard(victim));
  dep.sim().run();
  r.end = model.evaluate(scraper, telemetry::event_log());

  for (size_t s = 0; s < dep.shard_count(); ++s) {
    r.nodes.add(dep.shard_node(s)->cost_snapshot());
  }
  for (const auto& [asn, policy] : dep.policies()) {
    r.nodes.add(dep.as_node(asn)->cost_snapshot());
  }

  for (size_t s = 0; s < dep.shard_count(); ++s) {
    r.hops_recorded += telemetry::registry()
                           .histogram("shard.s" + std::to_string(s) +
                                      ".hop_latency_us")
                           .count();
  }

  const telemetry::EventLog& log = telemetry::event_log();
  r.events_jsonl = log.jsonl();
  r.shard_down = log.count(EventType::kShardDown);
  r.shard_up = log.count(EventType::kShardUp);
  r.failovers = log.count(EventType::kFailoverAdopted);
  r.snapshots = log.count(EventType::kSnapshotInstalled);
  r.log_consistent = log.consistent();

  r.spans = telemetry::tracer().events();
  r.total = telemetry::tracer().cost_total();
  r.untraced = telemetry::tracer().cost_untraced();
  return r;
}

/// One shared drill per test binary: the drill is the expensive part, the
/// assertions are cheap. The first (cached) run also serves as the warmup
/// that populates process-global crypto caches before the byte-identity
/// replay below.
const DrillRun& drill() {
  static const DrillRun r = run_chaos_drill();
  return r;
}

const telemetry::ShardHealth* shard_of(const telemetry::FleetHealth& fleet,
                                       uint32_t id) {
  for (const auto& s : fleet.shards) {
    if (s.shard == id) return &s;
  }
  return nullptr;
}

// --- Exact tiling across the kill/heal cycle ---------------------------

TEST(Observability, SpanSelfsPlusUntracedTileChaosDrillExactly) {
  const DrillRun& r = drill();
  // Tracer-internal identity: span selfs + untraced == grand total.
  telemetry::TraceCost sum = r.untraced;
  for (const auto& e : r.spans) sum.add(e.self);
  EXPECT_EQ(sum, r.total);
  ASSERT_TRUE(r.total.any());

  // Cross-check against the independent per-node cost models. The victim
  // shard's enclave died and was relaunched mid-run; Platform keeps the
  // retired enclave's meter, so the identity must survive the restart.
  EXPECT_EQ(r.total.sgx_user, r.nodes.sgx_user);
  EXPECT_EQ(r.total.sgx_priv, r.nodes.sgx_priv);
  EXPECT_EQ(r.total.transitions, r.nodes.transitions);
  EXPECT_EQ(r.total.normal + r.total.crypto + r.total.paging, r.nodes.normal);
}

TEST(Observability, ControlPlaneSpansAreShardTagged) {
  const DrillRun& r = drill();
  uint64_t replication = 0;
  uint64_t state_transfer = 0;
  uint64_t failover = 0;
  for (const auto& e : r.spans) {
    const std::string cat = e.cat == nullptr ? "" : e.cat;
    if (cat != "replication" && cat != "state_transfer" && cat != "failover") {
      continue;
    }
    // Every control-plane span carries the emitting shard's id.
    EXPECT_NE(e.shard, Tracer::kNoShard) << cat << "/" << e.name;
    EXPECT_LT(e.shard, 3u) << cat << "/" << e.name;
    if (cat == "replication") ++replication;
    if (cat == "state_transfer") ++state_transfer;
    if (cat == "failover") ++failover;
  }
  // The drill replicates admissions, serves a rejoin snapshot and adopts
  // the dead shard's batch — all three phases must be present.
  EXPECT_GT(replication, 0u);
  EXPECT_GT(state_transfer, 0u);
  EXPECT_GT(failover, 0u);
}

// --- Structured event log ----------------------------------------------

TEST(Observability, DrillEmitsFleetEventsAndRingStaysConsistent) {
  const DrillRun& r = drill();
  EXPECT_TRUE(r.log_consistent);
  EXPECT_GT(r.shard_down, 0u);   // survivors saw the victim die
  EXPECT_GT(r.shard_up, 0u);     // ...and saw it come back
  EXPECT_GT(r.failovers, 0u);    // admitted batch adopted across shards
  EXPECT_GT(r.snapshots, 0u);    // rejoin merged a snapshot
  EXPECT_FALSE(r.events_jsonl.empty());
}

// A kill emits one kFailoverAdopted per shard that now fronts some of the
// dead shard's ASes (node = adopter, a = dead shard, b = ASes adopted),
// together accounting for every one of them; a heal adopts nothing.
TEST(Observability, KillReportsEachAdopterOnceAndHealReportsNone) {
  TracingOn guard;
  routing::ScenarioConfig cfg;
  cfg.n_ases = 24;
  cfg.seed = 11;
  cfg.shards = 4;
  cfg.robust = true;
  routing::RoutingDeployment dep(cfg);
  dep.run_attestation_phase();
  dep.run_routing_phase();

  const uint32_t victim = 1;
  std::vector<routing::AsNumber> fronted;
  for (const auto& [asn, policy] : dep.policies()) {
    if (dep.shard_of_as(asn) == victim) fronted.push_back(asn);
  }
  ASSERT_FALSE(fronted.empty());

  telemetry::event_log().clear();
  ASSERT_TRUE(dep.kill_shard(victim));
  dep.sim().run();
  std::set<uint32_t> adopters;
  uint64_t adopted = 0;
  for (const telemetry::FleetEvent& e : telemetry::event_log().snapshot()) {
    if (e.type != EventType::kFailoverAdopted) continue;
    EXPECT_EQ(e.a, victim);
    EXPECT_TRUE(adopters.insert(e.node).second)
        << "shard " << e.node << " reported its adoption twice";
    adopted += e.b;
  }
  EXPECT_EQ(adopted, fronted.size());
  // The adopters are exactly the shards the router now sends those ASes to.
  std::set<uint32_t> routed;
  for (const routing::AsNumber asn : fronted) {
    routed.insert(dep.shard_of_as(asn));
  }
  EXPECT_EQ(adopters, routed);

  telemetry::event_log().clear();
  ASSERT_TRUE(dep.heal_shard(victim));
  dep.sim().run();
  EXPECT_EQ(telemetry::event_log().count(EventType::kFailoverAdopted), 0u);
}

TEST(Observability, SameSeedReplayYieldsByteIdenticalEventLog) {
  const DrillRun& warm = drill();  // warmup (crypto caches) + baseline
  const DrillRun replay = run_chaos_drill();
  EXPECT_EQ(warm.events_jsonl, replay.events_jsonl);
}

// --- Health model over the drill ---------------------------------------

TEST(Observability, VictimShardReadsFailedWhileDownAndServesAfterHeal) {
  const DrillRun& r = drill();

  // Mid-drill: the victim is down with no later up — failed, outage
  // attributed — and the fleet inherits the worst shard state.
  const telemetry::ShardHealth* mid = shard_of(r.mid, r.victim);
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->state, telemetry::HealthState::kFailed);
  EXPECT_GT(mid->down_since_us, 0u);
  EXPECT_EQ(r.mid.state, telemetry::HealthState::kFailed);

  // After the heal: back up (never failed), with the failover adoption,
  // the rejoin snapshot and the heal duration attributed to it.
  const telemetry::ShardHealth* end = shard_of(r.end, r.victim);
  ASSERT_NE(end, nullptr);
  EXPECT_NE(end->state, telemetry::HealthState::kFailed);
  EXPECT_EQ(end->down_since_us, 0u);
  EXPECT_GT(end->last_heal_us, 0u);
  EXPECT_GT(end->snapshots_installed, 0u);
  EXPECT_EQ(r.end.epc_pressure_events, r.mid.epc_pressure_events);
}

TEST(Observability, HopLatencyHistogramsAreRecordedPerShard) {
  const DrillRun& r = drill();
  // Replication hops landed in the per-shard hop-latency histograms (each
  // ring leg re-stamps its send time, so every hop is one sample).
  EXPECT_GT(r.hops_recorded, 0u);
}

}  // namespace
}  // namespace tenet

#endif  // TENET_TELEMETRY_ENABLED
