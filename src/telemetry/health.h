// Fleet health / SLO model: derives per-shard and fleet-wide
// healthy / degraded / failed verdicts from the scrape ring (rolling
// metric windows) joined with the structured event log (fault facts).
//
// The model is a pure function of (scraper, event log, policy): it holds
// no mutable state, so evaluating it twice over the same run yields the
// same report, and a same-seed replay yields a byte-identical JSON
// report. It is the only SLO evaluator: report_json() carries the verdict
// of every scrape window in the ring, and tools/analyze.py joins
// those windows with the exported events and scrapes instead of
// re-deriving them.
//
// State machine per shard:
//   failed    — a shard_down event with no later shard_up;
//   degraded  — serving, but the rolling window shows an SLO breach
//               (p99 replication-hop latency over the cap, goodput under
//               the floor, last heal over budget) or a degrade-class
//               event (rollback refused) landed inside the window;
//   healthy   — everything else.
// Fleet state is the worst shard state.
#pragma once

#include "telemetry/events.h"
#include "telemetry/scrape.h"

#if TENET_TELEMETRY_ENABLED

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tenet::telemetry {

enum class HealthState : uint8_t { kHealthy = 0, kDegraded = 1, kFailed = 2 };

[[nodiscard]] std::string_view health_state_name(HealthState s);

/// SLO thresholds. Defaults match the PR8 chaos drill's budgets.
struct SloPolicy {
  uint64_t p99_hop_latency_us = 5000;  // replication-hop p99 cap per window
  double goodput_floor = 0.5;          // delivered/resolved floor per window
  double heal_budget_ms = 400.0;       // shard down->up budget
  size_t window_samples = 8;           // rolling window width, in scrapes
};

struct ShardHealth {
  uint32_t shard = 0;
  HealthState state = HealthState::kHealthy;
  uint64_t p99_hop_latency_us = 0;  // over the rolling window
  uint64_t hops_in_window = 0;
  uint64_t rollbacks_refused = 0;   // cumulative (whole event log)
  uint64_t failovers_adopted = 0;   // batches adopted on this shard's behalf
  uint64_t snapshots_installed = 0;
  uint64_t down_since_us = 0;       // nonzero while failed
  uint64_t last_heal_us = 0;        // duration of the latest down->up pair
  bool slo_breached = false;        // latency/heal breach in the window
};

struct FleetHealth {
  uint64_t ts_us = 0;               // newest scrape timestamp
  HealthState state = HealthState::kHealthy;
  double goodput = 1.0;             // delivered/(delivered+dropped)
  bool goodput_breached = false;
  uint64_t epc_pressure_events = 0;
  uint64_t run_cap_hits = 0;
  uint64_t rekeys = 0;
  uint64_t partition_cuts = 0;
  uint64_t partition_heals = 0;
  std::vector<ShardHealth> shards;  // sorted by shard id
};

class HealthModel {
 public:
  explicit HealthModel(SloPolicy policy = {}) : policy_(policy) {}

  [[nodiscard]] const SloPolicy& policy() const { return policy_; }

  /// Evaluates the fleet from the scrape ring + event log. Works with an
  /// empty scraper (events still drive the state machine; metric windows
  /// read as empty).
  [[nodiscard]] FleetHealth evaluate(const Scraper& scraper,
                                     const EventLog& log) const;

  /// evaluate() rendered as one deterministic JSON object, plus a
  /// `windows` array: one record per scrape tip after the oldest, each
  /// with its (base, tip) timestamps, goodput, per-shard hop p99 and
  /// count (shards with hops only), and the SLO breaches it shows.
  [[nodiscard]] std::string report_json(const Scraper& scraper,
                                        const EventLog& log) const;

  /// q-quantile of the samples recorded between two snapshots of the same
  /// histogram (bucket-count delta), interpolated like
  /// Histogram::quantile. `base` may be an empty (default) histogram.
  static uint64_t window_quantile(const Histogram& base, const Histogram& tip,
                                  double q);

 private:
  [[nodiscard]] bool goodput_breach(double goodput) const {
    return goodput < policy_.goodput_floor;
  }
  [[nodiscard]] bool hop_breach(uint64_t p99_us, uint64_t hops) const {
    return hops > 0 && p99_us > policy_.p99_hop_latency_us;
  }

  SloPolicy policy_;
};

}  // namespace tenet::telemetry

#endif  // TENET_TELEMETRY_ENABLED
