// Structured fleet-event log: a bounded, virtual-clock-stamped ring of
// typed control-plane events (failover adoption, rekeys, rollback
// refusals, EPC pressure, run-cap hits, partition cuts/heals, enclave
// restarts, shard liveness flips, snapshot installs).
//
// Counters say *how much*; traces say *where the cycles went*; the event
// log says *what happened to the fleet and when*. tools/analyze.py joins
// the three: it correlates SLO breaches in the scrape time series
// against fault windows reconstructed from these events, so a latency
// spike with no matching fault event is an anomaly rather than noise.
//
// Determinism: timestamps come from the tracer's virtual clock via the
// non-mutating peek (Tracer::clock_now — emitting an event never perturbs
// span timestamps), events hold fixed-size integer fields only (no
// strings, no allocation per emit beyond the pre-sized ring), and the
// JSONL export iterates in sequence order, so a scripted run produces a
// byte-identical event log.
//
// Like every other instrumentation layer, emission sites go through the
// TENET_EVENT macro: one branch on the global telemetry flag when built
// in but switched off, and nothing at all under -DTENET_TELEMETRY=OFF
// (the EventLog symbols themselves vanish from the build — the gcc-notlm
// CI leg asserts this with nm).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/telemetry.h"

namespace tenet::telemetry {

/// Typed fleet events. Values are part of the JSONL export contract
/// (tools/analyze.py) — append only, never renumber.
enum class EventType : uint32_t {
  kFailoverAdopted = 1,   // node adopted a dead shard's admitted batch
  kRekey = 2,             // secure channel rekeyed (epoch > 1)
  kRollbackRefused = 3,   // stale snapshot rejected by the version vector
  kEpcPressure = 4,       // EPC had no evictable page (pressure fault)
  kRunCapHit = 5,         // simulator run() hit the event safety cap
  kPartitionCut = 6,      // first drop of a scheduled network partition
  kPartitionHeal = 7,     // every partition window has ended
  kEnclaveRestart = 8,    // Platform::restart_enclave tore down + relaunched
  kShardDown = 9,         // replica marked a shard unreachable
  kShardUp = 10,          // replica marked a shard reachable again
  kSnapshotInstalled = 11,  // join-by-state-transfer merged a snapshot
};

#if TENET_TELEMETRY_ENABLED

/// Stable lower_snake name for exports ("failover_adopted", ...).
[[nodiscard]] std::string_view event_type_name(EventType t);

/// One fleet event. Fixed-size integers only; `node` is the emitting
/// node/enclave/shard id (0 when not applicable) and a/b are type-specific
/// details (documented per emission site).
struct FleetEvent {
  uint64_t seq = 0;    // 1-based, strictly increasing across the run
  uint64_t ts_us = 0;  // virtual-clock microseconds (Tracer::clock_now)
  EventType type = EventType::kFailoverAdopted;
  uint32_t node = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

/// Bounded ring of FleetEvents. When full, the oldest event is evicted
/// (and counted), so a wedged or hostile emission path can never grow the
/// log without bound — the boundary fuzzer drives hostile frames into the
/// emitting handlers and asserts consistent() afterwards.
class EventLog {
 public:
  static constexpr size_t kDefaultCapacity = 4096;
  static constexpr size_t kTypeCount = 12;  // max EventType value + 1

  explicit EventLog(size_t capacity = kDefaultCapacity);

  /// Resizes the ring (drops retained events; totals keep counting).
  void set_capacity(size_t capacity);
  [[nodiscard]] size_t capacity() const { return capacity_; }

  /// Records one event, stamped from the tracer's virtual clock.
  void emit(EventType type, uint32_t node, uint64_t a = 0, uint64_t b = 0);

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<FleetEvent> snapshot() const;
  [[nodiscard]] size_t size() const { return ring_.size(); }
  /// Every emit() since the last clear(), retained or not.
  [[nodiscard]] uint64_t total() const { return next_seq_ - 1; }
  [[nodiscard]] uint64_t evicted() const { return evicted_; }
  /// Emissions of one type since the last clear() (includes evicted).
  [[nodiscard]] uint64_t count(EventType t) const;

  /// One JSON object per line, oldest first:
  ///   {"seq":N,"ts_us":T,"type":"rekey","node":3,"a":0,"b":0}
  [[nodiscard]] std::string jsonl() const;

  /// Ring invariants: retained seqs strictly increasing, size bounded by
  /// capacity, eviction arithmetic exact. The boundary fuzzer calls this
  /// after every hostile campaign — a false return means the ring wedged.
  [[nodiscard]] bool consistent() const;

  /// Drops everything and restarts seq from 1 (test/bench isolation).
  void clear();

 private:
  std::vector<FleetEvent> ring_;  // circular, head_ = oldest
  size_t capacity_;
  size_t head_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t evicted_ = 0;
  uint64_t by_type_[kTypeCount] = {};
};

/// Process-wide event log used by TENET_EVENT (leaked, like registry()).
EventLog& event_log();

#endif  // TENET_TELEMETRY_ENABLED

}  // namespace tenet::telemetry

/// Emission macro: TENET_EVENT(kRekey, node) or
/// TENET_EVENT(kShardDown, node, shard_id). One branch on the runtime
/// flag when compiled in; nothing at all when telemetry is compiled out.
#if TENET_TELEMETRY_ENABLED
#define TENET_EVENT(type, node, ...)                                        \
  do {                                                                      \
    if (::tenet::telemetry::enabled()) {                                    \
      ::tenet::telemetry::event_log().emit(                                 \
          ::tenet::telemetry::EventType::type,                              \
          (node)__VA_OPT__(, ) __VA_ARGS__);                                \
    }                                                                       \
  } while (0)
#else
#define TENET_EVENT(type, node, ...) ((void)0)
#endif
