// Sharded control-plane bench (PR 8): throughput-vs-shards scaling for the
// replicated inter-domain controller, heal latency after an attested
// rejoin, and a kill-one-shard-per-epoch chaos drill with a same-seed
// replay equality check.
//
// Output: human tables by default; `--json` prints one flat JSON object.
//
// What is gated (all simulator/model-deterministic; the bench exits 1
// naming any value that misses):
//   * scale_x8 >= 6 — the 8-shard group retires the same policy load at
//     >= 6x the single controller (total 1-shard modeled cycles / max
//     per-shard modeled cycles, steady-state window only);
//   * tables_match_ground_truth — every sweep point distributes exactly
//     the tables the reference fixpoint computes;
//   * chaos_lost_admissions — admitted policies lost across 8 epochs of
//     kill/verify/heal/verify (must be 0);
//   * chaos_replay_equal — a second run under the same seed folds to the
//     same per-epoch table checksum (deterministic failover);
//   * heal_max_ms <= 400 — worst-epoch heal latency stays under the cap;
//   * the scale factors, the fold checksum and the heal latency are also
//     pinned at the values this seed produces.
#include <cstdio>
#include <cstring>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "routing/bgp.h"
#include "routing/scenario.h"
#include "sgx/cost_model.h"

namespace {

using namespace tenet;
using namespace tenet::routing;

constexpr size_t kAses = 128;
constexpr uint64_t kSeed = 2015;
constexpr size_t kTopShards = 8;
constexpr size_t kChaosEpochs = 8;
constexpr double kScaleFloor = 6.0;
/// Worst-epoch heal budget (simulated milliseconds): attested rejoin +
/// snapshot transfer + slice recompute + table redistribution.
constexpr double kHealCapMs = 400.0;

uint32_t fnv1a32(uint32_t h, const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

ScenarioConfig make_config(size_t shards) {
  ScenarioConfig cfg;
  cfg.n_ases = kAses;
  cfg.seed = kSeed;
  cfg.robust = true;
  cfg.retry.enabled = true;
  cfg.shards = shards;
  return cfg;
}

/// True iff every AS's received table equals the reference fixpoint.
bool tables_match(RoutingDeployment& dep, const ComputationResult& expected) {
  for (const auto& [asn, policy] : dep.policies()) {
    if (!dep.as_has_routes(asn)) return false;
    const RoutingTable table = dep.table_of(asn);
    const auto it = expected.tables.find(asn);
    if (it == expected.tables.end() || table.size() != it->second.size()) {
      return false;
    }
    for (const auto& [prefix, route] : table) {
      const auto ref = it->second.find(prefix);
      if (ref == it->second.end() || route.as_path != ref->second.as_path) {
        return false;
      }
    }
  }
  return true;
}

uint32_t fold_tables(RoutingDeployment& dep, uint32_t h) {
  for (const auto& [asn, policy] : dep.policies()) {
    h = fnv1a32(h, reinterpret_cast<const uint8_t*>(&asn), sizeof(asn));
    for (const auto& [prefix, route] : dep.table_of(asn)) {
      const crypto::Bytes wire = route.serialize();
      h = fnv1a32(h, wire.data(), wire.size());
    }
  }
  return h;
}

struct SweepPoint {
  size_t shards = 0;
  double total_cycles = 0;  // sum over shard replicas, routing phase
  double max_cycles = 0;    // slowest replica bounds throughput
  bool match = false;       // tables equal the reference fixpoint
};

SweepPoint run_sweep_point(size_t shards, const ComputationResult* expected,
                           ComputationResult* expected_out) {
  sgx::CostModel model;
  RoutingDeployment dep(make_config(shards));
  dep.run_attestation_phase();
  std::vector<sgx::CostModel::Snapshot> before;
  for (size_t i = 0; i < shards; ++i) {
    before.push_back(dep.shard_node(i)->cost_snapshot());
  }
  dep.run_routing_phase();
  SweepPoint point;
  point.shards = shards;
  for (size_t i = 0; i < shards; ++i) {
    const auto after = dep.shard_node(i)->cost_snapshot();
    const sgx::CostModel::Snapshot delta{
        after.sgx_user - before[i].sgx_user,
        after.sgx_priv - before[i].sgx_priv,
        after.normal - before[i].normal,
        after.transitions - before[i].transitions,
        0,
        0};
    const double cycles = model.cycles_of(delta);
    point.total_cycles += cycles;
    if (cycles > point.max_cycles) point.max_cycles = cycles;
  }
  if (expected_out != nullptr) {
    *expected_out = BgpComputation::compute(dep.policies());
    expected = expected_out;
  }
  point.match = tables_match(dep, *expected);
  return point;
}

struct ChaosResult {
  size_t epochs = 0;
  uint64_t lost_admissions = 0;  // epochs where a table diverged/vanished
  uint32_t checksum = 2166136261u;  // folded per-epoch table state
  double heal_max_ms = 0;
};

ChaosResult run_chaos() {
  ChaosResult out;
  RoutingDeployment dep(make_config(kTopShards));
  dep.run_attestation_phase();
  dep.run_routing_phase();
  const ComputationResult expected = BgpComputation::compute(dep.policies());
  for (size_t epoch = 0; epoch < kChaosEpochs; ++epoch) {
    // Never shard 0 only by convention of the victim rotation — every
    // extra shard gets killed at least once across the run.
    const size_t victim = 1 + (epoch % (kTopShards - 1));
    if (!dep.kill_shard(victim)) break;
    dep.sim().run();
    // Zero admitted-state loss: every AS (including the re-pointed ones)
    // still resolves the exact reference tables from the survivors.
    if (!tables_match(dep, expected)) ++out.lost_admissions;
    out.checksum = fold_tables(dep, out.checksum);

    const double t0 = dep.sim().now();
    if (!dep.heal_shard(victim)) break;
    dep.sim().run();
    const double heal_ms = (dep.sim().now() - t0) * 1e3;
    if (heal_ms > out.heal_max_ms) out.heal_max_ms = heal_ms;
    if (!tables_match(dep, expected)) ++out.lost_admissions;
    out.checksum = fold_tables(dep, out.checksum);
    ++out.epochs;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  tenet::bench::Telemetry telemetry(argc, argv);
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") json = true;
  }

  // --- Throughput-vs-shards sweep -----------------------------------------
  if (!json) {
    std::printf("Sharded control plane: %zu ASes, seed %llu\n", kAses,
                static_cast<unsigned long long>(kSeed));
    std::printf("%8s %14s %14s %8s %6s\n", "shards", "total cycles",
                "max/shard", "scale", "match");
  }
  ComputationResult expected;
  std::vector<SweepPoint> curve;
  bool all_match = true;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, kTopShards}) {
    SweepPoint p = run_sweep_point(
        shards, curve.empty() ? nullptr : &expected,
        curve.empty() ? &expected : nullptr);
    all_match = all_match && p.match;
    curve.push_back(p);
    const double scale = curve.front().total_cycles / p.max_cycles;
    if (!json) {
      std::printf("%8zu %14.3e %14.3e %7.2fx %6s\n", p.shards,
                  p.total_cycles, p.max_cycles, scale,
                  p.match ? "yes" : "NO");
    }
  }
  const double baseline = curve.front().total_cycles;
  const double scale_x2 = baseline / curve[1].max_cycles;
  const double scale_x4 = baseline / curve[2].max_cycles;
  const double scale_x8 = baseline / curve[3].max_cycles;
  const bool floor_met = scale_x8 >= kScaleFloor;

  // --- Chaos drill + same-seed replay -------------------------------------
  const ChaosResult chaos = run_chaos();
  const ChaosResult replay = run_chaos();
  const bool replay_equal = chaos.checksum == replay.checksum &&
                            chaos.epochs == replay.epochs &&
                            chaos.lost_admissions == replay.lost_admissions;
  const bool heal_ok = chaos.heal_max_ms <= kHealCapMs;

  bench::Gate gate("bench_controlplane");
  gate.at_least("scale_x8", scale_x8, kScaleFloor);
  gate.at_most("heal_max_ms", chaos.heal_max_ms, kHealCapMs);
  gate.pin("tables_match_ground_truth", all_match, 1);
  gate.pin("chaos_epochs", chaos.epochs, kChaosEpochs);
  gate.pin("chaos_lost_admissions", chaos.lost_admissions, 0);
  gate.pin("chaos_replay_equal", replay_equal, 1);
  gate.pin("chaos_checksum32", chaos.checksum, 1062110789);
  gate.pin("scale_x2", scale_x2, 1.81, 2);
  gate.pin("scale_x4", scale_x4, 3.38, 2);
  gate.pin("scale_x8", scale_x8, 6.35, 2);
  gate.pin("heal_max_ms", chaos.heal_max_ms, 6.15, 2);
  gate.pin("shards_top", kTopShards, 8);
  gate.pin("n_ases", kAses, 128);

  if (json) {
    std::printf("{\n");
    std::printf("  \"scale_floor_met\": %d,\n", floor_met ? 1 : 0);
    std::printf("  \"scale_x8\": %.2f,\n", scale_x8);
    std::printf("  \"tables_match_ground_truth\": %d,\n", all_match ? 1 : 0);
    std::printf("  \"chaos_epochs\": %zu,\n", chaos.epochs);
    std::printf("  \"chaos_lost_admissions\": %llu,\n",
                static_cast<unsigned long long>(chaos.lost_admissions));
    std::printf("  \"chaos_replay_equal\": %d,\n", replay_equal ? 1 : 0);
    std::printf("  \"chaos_checksum32\": %u,\n", chaos.checksum);
    std::printf("  \"heal_cap_met\": %d,\n", heal_ok ? 1 : 0);
    std::printf("  \"heal_max_ms\": %.2f,\n", chaos.heal_max_ms);
    std::printf("  \"shards_top\": %zu,\n", kTopShards);
    std::printf("  \"n_ases\": %zu,\n", kAses);
    std::printf("  \"scale_x2\": %.2f,\n", scale_x2);
    std::printf("  \"scale_x4\": %.2f\n", scale_x4);
    std::printf("}\n");
  } else {
    std::printf("\nChaos drill: %zu epochs (kill one shard per epoch)\n",
                chaos.epochs);
    std::printf("  lost admissions:    %llu\n",
                static_cast<unsigned long long>(chaos.lost_admissions));
    std::printf("  per-epoch checksum: %u (replay %s)\n", chaos.checksum,
                replay_equal ? "equal" : "DIVERGED");
    std::printf("  heal latency max:   %.2f ms (cap %.0f ms)\n",
                chaos.heal_max_ms, kHealCapMs);
    std::printf("\n%s\n", gate.exit_code() == 0 ? "PASS" : "FAIL");
  }
  return gate.exit_code();
}
