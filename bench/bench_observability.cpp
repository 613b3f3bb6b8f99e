// Observability overhead benchmark (PR 10): what does fleet observability
// cost? Runs the same deterministic sharded chaos drill — a replicated
// inter-domain controller, one kill/heal epoch per extra shard — in three
// modes:
//
//   off            telemetry disabled (the default for every other bench)
//   events         telemetry enabled: counters, spans, the structured
//                  event log, and a virtual-clock registry scraper
//   events+health  events plus a HealthModel evaluation at every epoch
//                  boundary and a full report at the end
//
// Prints one flat JSON object and exits 1 naming any gated value that
// misses. Wall-clock metrics are informational except one in-run ratio;
// the other gated metrics are model/simulator-deterministic:
//   - obs_health_overhead_pct <= 5: full observability (events + health
//     evaluation) costs at most 5% wall clock (min-of-reps keeps machine
//     noise out; obs_overhead_over_cap_pct reports the excess);
//   - chaos_lost_admissions: admitted policies lost across the drill (0);
//   - obs_replay_equal: same-seed replay produces a byte-identical event
//     log (deterministic failover + virtual-clock stamps);
//   - obs_log_consistent / obs_unhealed_shards: the event ring's
//     invariants hold and every killed shard healed, in the export run
//     too (so --kill-anomaly exits 1);
//   - obs_fleet_events / obs_scrape_samples / obs_health_evals:
//     instrumentation coverage (a silently dropped emission or scrape
//     fails the gate), checked only when telemetry is compiled in.
//
// Export run for the nightly controlplane-chaos drill:
//   --export DIR     one more full-observability drill whose bundle (its
//                    trace, metrics, events, scrapes and health report)
//                    is written to DIR for tools/analyze.py DIR --check
//   --kill-anomaly   the export run (made even without --export) kills
//                    one shard WITHOUT healing it — the bench exits 1, and
//                    analyze.py --check must flag this run and pass the
//                    clean one.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>

#include "bench_util.h"
#include "routing/bgp.h"
#include "routing/scenario.h"
#include "telemetry/scrape.h"
#include "telemetry/trace.h"
#if TENET_TELEMETRY_ENABLED
#include "telemetry/events.h"
#include "telemetry/health.h"
#endif

using namespace tenet;
using namespace tenet::routing;
using Clock = std::chrono::steady_clock;

namespace {

constexpr size_t kAses = 24;
constexpr uint64_t kSeed = 2015;
constexpr size_t kShards = 3;
constexpr double kOverheadCapPct = 5.0;

enum class Mode { kOff, kEvents, kHealth };

struct DrillStats {
  double wall_ns = 0;
  uint64_t lost_admissions = 0;
  uint64_t fleet_events = 0;
  uint64_t scrape_samples = 0;
  bool log_consistent = true;
  uint64_t unhealed_shards = 0;
  uint64_t health_evals = 0;
  std::string events_jsonl;  // replay-equality fingerprint (events modes)
  bool export_failed = false;
};

ScenarioConfig make_config() {
  ScenarioConfig cfg;
  cfg.n_ases = kAses;
  cfg.seed = kSeed;
  cfg.robust = true;
  cfg.retry.enabled = true;
  cfg.shards = kShards;
  return cfg;
}

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

/// One kill/heal epoch per extra shard; when `heal_last` is false the
/// final victim stays dead (the injected anomaly for analyze.py). With
/// `bundle`, the run's export bundle is written before its scraper and
/// health model go out of scope.
DrillStats run_drill(Mode mode, bool heal_last,
                     bench::Telemetry* bundle = nullptr) {
  telemetry::set_enabled(mode != Mode::kOff);
  telemetry::tracer().reset();
#if TENET_TELEMETRY_ENABLED
  telemetry::event_log().clear();
  const telemetry::HealthModel model;
#endif
  DrillStats r;
  telemetry::Scraper scraper;

  const auto t0 = Clock::now();
  RoutingDeployment dep(make_config());
  if (mode != Mode::kOff) dep.sim().attach_scraper(&scraper, /*period=*/0.002);
  dep.run_attestation_phase();
  dep.run_routing_phase();
  const ComputationResult expected = BgpComputation::compute(dep.policies());

  for (size_t victim = 1; victim < kShards; ++victim) {
    const bool heal = heal_last || victim + 1 < kShards;
    if (!dep.kill_shard(victim)) break;
    dep.sim().run();
    if (!tables_match(dep, expected)) ++r.lost_admissions;
#if TENET_TELEMETRY_ENABLED
    if (mode == Mode::kHealth) {
      (void)model.evaluate(scraper, telemetry::event_log());
      ++r.health_evals;
    }
#endif
    if (!heal) break;
    if (!dep.heal_shard(victim)) break;
    dep.sim().run();
    if (!tables_match(dep, expected)) ++r.lost_admissions;
#if TENET_TELEMETRY_ENABLED
    if (mode == Mode::kHealth) {
      (void)model.evaluate(scraper, telemetry::event_log());
      ++r.health_evals;
    }
#endif
  }
  r.wall_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();

#if TENET_TELEMETRY_ENABLED
  if (mode != Mode::kOff) {
    const telemetry::EventLog& log = telemetry::event_log();
    r.fleet_events = log.total();
    r.log_consistent = log.consistent();
    r.events_jsonl = log.jsonl();
    r.scrape_samples = scraper.total_scrapes();
    const telemetry::FleetHealth fleet =
        model.evaluate(scraper, telemetry::event_log());
    for (const auto& s : fleet.shards) {
      if (s.down_since_us != 0) ++r.unhealed_shards;
    }
  }
  if (bundle != nullptr) r.export_failed = !bundle->write(&scraper, &model);
#else
  if (bundle != nullptr) r.export_failed = !bundle->write(&scraper);
#endif
  // The tracer is reset on entry only: the last run's spans stay readable.
  telemetry::set_enabled(false);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Telemetry telemetry_flags(argc, argv);
  bool kill_anomaly = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--kill-anomaly") kill_anomaly = true;
  }

  // Warm process-global crypto caches (group contexts, fixed-base tables)
  // so mode deltas measure observability, not first-touch precomputation.
  (void)run_drill(Mode::kOff, /*heal_last=*/true);

  constexpr int kReps = 5;
  double off_ns = 0, events_ns = 0, health_ns = 0;
  DrillStats evented{};
  DrillStats healthy{};
  bool replay_equal = true;
  std::string first_events_jsonl;
  for (int rep = 0; rep < kReps; ++rep) {
    // Interleave modes so drift (thermal, cache) hits all three equally;
    // min-of-reps is the noise-robust estimate of the true cost.
    const DrillStats off = run_drill(Mode::kOff, true);
    const DrillStats ev = run_drill(Mode::kEvents, true);
    const DrillStats he = run_drill(Mode::kHealth, true);
    off_ns = rep == 0 ? off.wall_ns : std::min(off_ns, off.wall_ns);
    events_ns = rep == 0 ? ev.wall_ns : std::min(events_ns, ev.wall_ns);
    health_ns = rep == 0 ? he.wall_ns : std::min(health_ns, he.wall_ns);
    if (rep == 0) {
      first_events_jsonl = ev.events_jsonl;
    } else if (ev.events_jsonl != first_events_jsonl) {
      replay_equal = false;  // same seed, same virtual clock — must match
    }
    evented = ev;  // deterministic fields identical across reps
    healthy = he;
  }

  // Export run for analyze.py: full observability, optionally with the
  // final victim left dead (--kill-anomaly). Its unhealed shards count in
  // the gate like the timed runs'.
  uint64_t export_unhealed = 0;
  if (kill_anomaly || telemetry_flags.active()) {
    const DrillStats ex =
        run_drill(Mode::kHealth, /*heal_last=*/!kill_anomaly,
                  telemetry_flags.active() ? &telemetry_flags : nullptr);
    if (ex.export_failed) return 1;
    export_unhealed = ex.unhealed_shards;
  }

  const double events_pct = bench::pct_increase(events_ns, off_ns);
  const double health_pct = bench::pct_increase(health_ns, off_ns);
  const double over_cap = std::max(0.0, health_pct - kOverheadCapPct);
  const uint64_t lost = evented.lost_admissions + healthy.lost_admissions;
  const uint64_t unhealed = healthy.unhealed_shards + export_unhealed;

  std::fprintf(stderr,
               "observability: off %.2f ms, events %.2f ms (+%.2f%%), "
               "events+health %.2f ms (+%.2f%%); %llu fleet events, "
               "%llu scrapes, %llu health evals\n",
               off_ns / 1e6, events_ns / 1e6, events_pct, health_ns / 1e6,
               health_pct,
               static_cast<unsigned long long>(evented.fleet_events),
               static_cast<unsigned long long>(evented.scrape_samples),
               static_cast<unsigned long long>(healthy.health_evals));

  std::printf(
      "{\n"
      "  \"obs_off_ns\": %.0f,\n"
      "  \"obs_events_ns\": %.0f,\n"
      "  \"obs_health_ns\": %.0f,\n"
      "  \"obs_events_overhead_pct\": %.3f,\n"
      "  \"obs_health_overhead_pct\": %.3f,\n"
      "  \"obs_overhead_over_cap_pct\": %.3f,\n"
      "  \"obs_fleet_events\": %llu,\n"
      "  \"obs_scrape_samples\": %llu,\n"
      "  \"obs_health_evals\": %llu,\n"
      "  \"obs_log_consistent\": %d,\n"
      "  \"obs_replay_equal\": %d,\n"
      "  \"obs_unhealed_shards\": %llu,\n"
      "  \"chaos_lost_admissions\": %llu,\n"
      "  \"n_ases\": %zu,\n"
      "  \"shards\": %zu\n"
      "}\n",
      off_ns, events_ns, health_ns, events_pct, health_pct, over_cap,
      static_cast<unsigned long long>(evented.fleet_events),
      static_cast<unsigned long long>(evented.scrape_samples),
      static_cast<unsigned long long>(healthy.health_evals),
      evented.log_consistent && healthy.log_consistent ? 1 : 0,
      replay_equal ? 1 : 0,
      static_cast<unsigned long long>(unhealed),
      static_cast<unsigned long long>(lost), kAses, kShards);

  bench::Gate gate("bench_observability");
  gate.host_at_most("obs_health_overhead_pct", health_pct, kOverheadCapPct);
  gate.pin("chaos_lost_admissions", lost, 0);
  gate.pin("obs_log_consistent",
           evented.log_consistent && healthy.log_consistent, 1);
  gate.pin("obs_replay_equal", replay_equal, 1);
  gate.pin("obs_unhealed_shards", unhealed, 0);
  if (TENET_TELEMETRY_ENABLED) {
    gate.pin("obs_fleet_events", evented.fleet_events, 18);
    gate.pin("obs_scrape_samples", evented.scrape_samples, 15);
    gate.pin("obs_health_evals", healthy.health_evals, 4);
  }
  gate.pin("n_ases", kAses, 24);
  gate.pin("shards", kShards, 3);
  return gate.exit_code();
}
