#include "telemetry/health.h"

#if TENET_TELEMETRY_ENABLED

#include <algorithm>
#include <cstdio>
#include <map>

namespace tenet::telemetry {

namespace {

constexpr std::string_view kHopPrefix = "shard.s";
constexpr std::string_view kHopSuffix = ".hop_latency_us";

/// Parses "shard.s<id>.hop_latency_us" -> shard id; -1 on mismatch.
int64_t hop_histogram_shard(std::string_view name) {
  if (name.size() <= kHopPrefix.size() + kHopSuffix.size()) return -1;
  if (name.substr(0, kHopPrefix.size()) != kHopPrefix) return -1;
  if (name.substr(name.size() - kHopSuffix.size()) != kHopSuffix) return -1;
  const std::string_view digits =
      name.substr(kHopPrefix.size(),
                  name.size() - kHopPrefix.size() - kHopSuffix.size());
  int64_t id = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return -1;
    id = id * 10 + (c - '0');
  }
  return id;
}

uint64_t find_counter(const Scraper::Sample& s, std::string_view name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

const Histogram* find_histogram(const Scraper::Sample& s,
                                std::string_view name) {
  for (const auto& [n, h] : s.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

/// Goodput and per-shard replication-hop p99 over the scrape window
/// (base, tip]. The one place the SLO window is measured: evaluate() runs
/// it on the newest window, report_json() on every window in the ring.
struct WindowMetrics {
  double goodput = 1.0;  // delivered/resolved; 1.0 when nothing resolved
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> hops;  // shard -> p99, n
};

/// Signed counter delta: a counter that fell (a forged or lost sample)
/// reads negative instead of wrapping.
int64_t counter_delta(const Scraper::Sample& base, const Scraper::Sample& tip,
                      std::string_view name) {
  return static_cast<int64_t>(find_counter(tip, name) -
                              find_counter(base, name));
}

WindowMetrics measure_window(const Scraper::Sample& base,
                             const Scraper::Sample& tip) {
  WindowMetrics w;
  // Goodput over the messages whose fate was decided inside the window: a
  // message sent before the base can arrive inside it, so dividing by the
  // window's sends could read above 1 and hide a drop.
  const int64_t delivered =
      counter_delta(base, tip, "net.messages_delivered");
  const int64_t resolved =
      delivered + counter_delta(base, tip, "net.messages_dropped");
  if (resolved > 0) {
    w.goodput = static_cast<double>(delivered) / static_cast<double>(resolved);
  }
  static const Histogram kEmpty;
  for (const auto& [name, h] : tip.histograms) {
    const int64_t id = hop_histogram_shard(name);
    if (id < 0) continue;
    const Histogram* old = find_histogram(base, name);
    if (old == nullptr) old = &kEmpty;
    const uint64_t n = h.count() > old->count() ? h.count() - old->count() : 0;
    w.hops[static_cast<uint32_t>(id)] = {
        HealthModel::window_quantile(*old, h, 0.99), n};
  }
  return w;
}

/// Index of the base sample of the window whose tip is samples[tip]: the
/// window spans `window_samples` scrapes, tip included, clipped at the
/// oldest retained sample.
size_t window_base(size_t tip, size_t window_samples) {
  return tip + 1 - std::min(std::max(window_samples, size_t{1}), tip + 1);
}

/// Per-shard scratch built from the event log walk.
struct ShardEvents {
  uint64_t rollbacks = 0;
  uint64_t failovers = 0;
  uint64_t snapshots = 0;
  uint64_t down_since = 0;     // ts of the first down of the open outage
  bool down = false;
  uint64_t last_heal_us = 0;
  uint64_t last_degrade_seq = 0;  // seq of the latest degrade-class event
};

}  // namespace

std::string_view health_state_name(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kFailed: return "failed";
  }
  return "unknown";
}

uint64_t HealthModel::window_quantile(const Histogram& base,
                                      const Histogram& tip, double q) {
  const uint64_t count = tip.count() - base.count();
  if (count == 0 || tip.count() < base.count()) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count - 1);
  uint64_t below = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    const uint64_t in_bucket = tip.bucket(i) - base.bucket(i);
    if (in_bucket == 0) continue;
    if (rank < static_cast<double>(below + in_bucket)) {
      const double lo = static_cast<double>(Histogram::bucket_floor(i));
      const double hi =
          i == 0 ? 0.0
                 : static_cast<double>(Histogram::bucket_floor(i)) * 2.0 - 1.0;
      const double frac =
          (rank - static_cast<double>(below)) / static_cast<double>(in_bucket);
      return static_cast<uint64_t>(lo + frac * (hi - lo) + 0.5);
    }
    below += in_bucket;
  }
  return 0;
}

FleetHealth HealthModel::evaluate(const Scraper& scraper,
                                  const EventLog& log) const {
  FleetHealth fleet;
  fleet.epc_pressure_events = log.count(EventType::kEpcPressure);
  fleet.run_cap_hits = log.count(EventType::kRunCapHit);
  fleet.rekeys = log.count(EventType::kRekey);
  fleet.partition_cuts = log.count(EventType::kPartitionCut);
  fleet.partition_heals = log.count(EventType::kPartitionHeal);

  // --- Event walk: per-shard outage state machine --------------------------
  std::map<uint32_t, ShardEvents> by_shard;
  const auto& samples = scraper.samples();
  const Scraper::Sample* tip = samples.empty() ? nullptr : &samples.back();
  const Scraper::Sample* base =
      samples.empty()
          ? nullptr
          : &samples[window_base(samples.size() - 1, policy_.window_samples)];
  const uint64_t window_start_us = base != nullptr ? base->ts_us : 0;

  for (const FleetEvent& e : log.snapshot()) {
    switch (e.type) {
      case EventType::kShardDown: {
        ShardEvents& s = by_shard[static_cast<uint32_t>(e.a)];
        if (!s.down) {
          s.down = true;
          s.down_since = e.ts_us;
        }
        break;
      }
      case EventType::kShardUp: {
        ShardEvents& s = by_shard[static_cast<uint32_t>(e.a)];
        if (s.down) {
          s.down = false;
          s.last_heal_us = e.ts_us - s.down_since;
          s.down_since = 0;
        }
        break;
      }
      case EventType::kRollbackRefused: {
        ShardEvents& s = by_shard[static_cast<uint32_t>(e.a)];
        ++s.rollbacks;
        if (e.ts_us >= window_start_us) s.last_degrade_seq = e.seq;
        break;
      }
      case EventType::kFailoverAdopted:
        ++by_shard[static_cast<uint32_t>(e.a)].failovers;
        break;
      case EventType::kSnapshotInstalled:
        ++by_shard[static_cast<uint32_t>(e.a)].snapshots;
        break;
      default:
        break;
    }
  }

  // --- Metric window -------------------------------------------------------
  WindowMetrics window;
  if (tip != nullptr) {
    window = measure_window(*base, *tip);
    fleet.ts_us = tip->ts_us;
    fleet.goodput = window.goodput;
    fleet.goodput_breached = goodput_breach(window.goodput);
  }
  // Shards observed via metrics but never via events still get a row.
  for (const auto& [shard, stats] : window.hops) by_shard.try_emplace(shard);

  // --- Verdicts ------------------------------------------------------------
  const auto heal_budget_us =
      static_cast<uint64_t>(policy_.heal_budget_ms * 1000.0);
  for (const auto& [shard, ev] : by_shard) {
    ShardHealth out;
    out.shard = shard;
    out.rollbacks_refused = ev.rollbacks;
    out.failovers_adopted = ev.failovers;
    out.snapshots_installed = ev.snapshots;
    out.down_since_us = ev.down ? ev.down_since : 0;
    out.last_heal_us = ev.last_heal_us;
    const auto it = window.hops.find(shard);
    if (it != window.hops.end()) {
      out.p99_hop_latency_us = it->second.first;
      out.hops_in_window = it->second.second;
    }
    out.slo_breached =
        hop_breach(out.p99_hop_latency_us, out.hops_in_window) ||
        out.last_heal_us > heal_budget_us;
    if (ev.down) {
      out.state = HealthState::kFailed;
    } else if (out.slo_breached || ev.last_degrade_seq != 0) {
      out.state = HealthState::kDegraded;
    }
    if (out.state > fleet.state) fleet.state = out.state;
    fleet.shards.push_back(out);
  }
  if (fleet.goodput_breached && fleet.state == HealthState::kHealthy) {
    fleet.state = HealthState::kDegraded;
  }
  return fleet;
}

std::string HealthModel::report_json(const Scraper& scraper,
                                     const EventLog& log) const {
  const FleetHealth f = evaluate(scraper, log);
  std::string out = "{\"ts_us\":";
  out += std::to_string(f.ts_us);
  out += ",\"state\":";
  detail::append_json_escaped(out, health_state_name(f.state));
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", f.goodput);
  out += ",\"goodput\":";
  out += buf;
  out += ",\"goodput_breached\":";
  out += f.goodput_breached ? "true" : "false";
  out += ",\"events\":{\"epc_pressure\":";
  out += std::to_string(f.epc_pressure_events);
  out += ",\"run_cap_hits\":";
  out += std::to_string(f.run_cap_hits);
  out += ",\"rekeys\":";
  out += std::to_string(f.rekeys);
  out += ",\"partition_cuts\":";
  out += std::to_string(f.partition_cuts);
  out += ",\"partition_heals\":";
  out += std::to_string(f.partition_heals);
  out += "},\"policy\":{\"p99_hop_latency_us\":";
  out += std::to_string(policy_.p99_hop_latency_us);
  std::snprintf(buf, sizeof buf, "%.3f", policy_.goodput_floor);
  out += ",\"goodput_floor\":";
  out += buf;
  std::snprintf(buf, sizeof buf, "%.1f", policy_.heal_budget_ms);
  out += ",\"heal_budget_ms\":";
  out += buf;
  out += ",\"window_samples\":";
  out += std::to_string(policy_.window_samples);
  out += "},\"shards\":[";
  bool first = true;
  for (const ShardHealth& s : f.shards) {
    if (!first) out += ',';
    first = false;
    out += "{\"shard\":";
    out += std::to_string(s.shard);
    out += ",\"state\":";
    detail::append_json_escaped(out, health_state_name(s.state));
    out += ",\"p99_hop_latency_us\":";
    out += std::to_string(s.p99_hop_latency_us);
    out += ",\"hops_in_window\":";
    out += std::to_string(s.hops_in_window);
    out += ",\"rollbacks_refused\":";
    out += std::to_string(s.rollbacks_refused);
    out += ",\"failovers_adopted\":";
    out += std::to_string(s.failovers_adopted);
    out += ",\"snapshots_installed\":";
    out += std::to_string(s.snapshots_installed);
    out += ",\"down_since_us\":";
    out += std::to_string(s.down_since_us);
    out += ",\"last_heal_us\":";
    out += std::to_string(s.last_heal_us);
    out += ",\"slo_breached\":";
    out += s.slo_breached ? "true" : "false";
    out += '}';
  }
  // Every window in the ring, oldest tip first, each with its breaches.
  out += "],\"windows\":[";
  const auto& samples = scraper.samples();
  for (size_t i = 1; i < samples.size(); ++i) {
    const Scraper::Sample& base =
        samples[window_base(i, policy_.window_samples)];
    const WindowMetrics w = measure_window(base, samples[i]);
    std::snprintf(buf, sizeof buf, "%.6f", w.goodput);
    out += i > 1 ? ",{" : "{";
    out += "\"start_us\":" + std::to_string(base.ts_us) +
           ",\"end_us\":" + std::to_string(samples[i].ts_us) +
           ",\"goodput\":" + buf + ",\"shards\":{";
    std::string breaches;  // each entry led by a comma
    for (const auto& [shard, stats] : w.hops) {
      const auto [p99, hops] = stats;
      if (hops == 0) continue;
      const std::string id = std::to_string(shard);
      const std::string p99_us = std::to_string(p99);
      if (out.back() != '{') out += ',';
      out += "\"" + id + "\":{\"p99_us\":" + p99_us +
             ",\"hops\":" + std::to_string(hops) + '}';
      if (hop_breach(p99, hops)) {
        breaches += ",{\"kind\":\"hop_latency\",\"shard\":" + id +
                    ",\"p99_us\":" + p99_us + '}';
      }
    }
    if (goodput_breach(w.goodput)) {
      breaches += ",{\"kind\":\"goodput\",\"shard\":null,\"goodput\":";
      breaches += buf;
      breaches += '}';
    }
    out += "},\"breaches\":[";
    out += std::string_view(breaches).substr(breaches.empty() ? 0 : 1);
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace tenet::telemetry

#endif  // TENET_TELEMETRY_ENABLED
