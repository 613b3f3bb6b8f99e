#include "telemetry/events.h"

#include "telemetry/trace.h"

namespace tenet::telemetry {

#if TENET_TELEMETRY_ENABLED

std::string_view event_type_name(EventType t) {
  switch (t) {
    case EventType::kFailoverAdopted: return "failover_adopted";
    case EventType::kRekey: return "rekey";
    case EventType::kRollbackRefused: return "rollback_refused";
    case EventType::kEpcPressure: return "epc_pressure";
    case EventType::kRunCapHit: return "run_cap_hit";
    case EventType::kPartitionCut: return "partition_cut";
    case EventType::kPartitionHeal: return "partition_heal";
    case EventType::kEnclaveRestart: return "enclave_restart";
    case EventType::kShardDown: return "shard_down";
    case EventType::kShardUp: return "shard_up";
    case EventType::kSnapshotInstalled: return "snapshot_installed";
  }
  return "unknown";
}

EventLog::EventLog(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void EventLog::set_capacity(size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  evicted_ += ring_.size();
  ring_.clear();
  ring_.reserve(capacity_);
  head_ = 0;
}

void EventLog::emit(EventType type, uint32_t node, uint64_t a, uint64_t b) {
  FleetEvent e;
  e.seq = next_seq_++;
  e.ts_us = tracer().clock_now();
  e.type = type;
  e.node = node;
  e.a = a;
  e.b = b;
  const auto ti = static_cast<size_t>(type);
  if (ti < kTypeCount) by_type_[ti] += 1;
  // Mirror into the registry so scrape samples carry cumulative per-type
  // counts alongside the bounded ring (the ring keeps detail, the counter
  // keeps the total even after eviction).
  std::string name = "events.";
  name += event_type_name(type);
  registry().counter(name).add(1);
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
    return;
  }
  ring_[head_] = e;  // overwrite the oldest
  head_ = (head_ + 1) % capacity_;
  ++evicted_;
}

std::vector<FleetEvent> EventLog::snapshot() const {
  std::vector<FleetEvent> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

uint64_t EventLog::count(EventType t) const {
  const auto ti = static_cast<size_t>(t);
  return ti < kTypeCount ? by_type_[ti] : 0;
}

std::string EventLog::jsonl() const {
  std::string out;
  for (const FleetEvent& e : snapshot()) {
    out += "{\"seq\":";
    out += std::to_string(e.seq);
    out += ",\"ts_us\":";
    out += std::to_string(e.ts_us);
    out += ",\"type\":";
    detail::append_json_escaped(out, event_type_name(e.type));
    out += ",\"node\":";
    out += std::to_string(e.node);
    out += ",\"a\":";
    out += std::to_string(e.a);
    out += ",\"b\":";
    out += std::to_string(e.b);
    out += "}\n";
  }
  return out;
}

bool EventLog::consistent() const {
  if (ring_.size() > capacity_) return false;
  if (evicted_ + ring_.size() != total()) return false;
  uint64_t prev = 0;
  for (const FleetEvent& e : snapshot()) {
    if (e.seq <= prev || e.seq > total()) return false;
    prev = e.seq;
  }
  uint64_t typed = 0;
  for (const uint64_t n : by_type_) typed += n;
  return typed == total();
}

void EventLog::clear() {
  ring_.clear();
  head_ = 0;
  next_seq_ = 1;
  evicted_ = 0;
  for (uint64_t& n : by_type_) n = 0;
}

EventLog& event_log() {
  static EventLog* log = new EventLog();  // leaked, like the registry
  return *log;
}

#endif  // TENET_TELEMETRY_ENABLED

}  // namespace tenet::telemetry
