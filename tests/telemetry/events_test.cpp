#include "telemetry/events.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/export.h"
#include "telemetry/trace.h"

#if TENET_TELEMETRY_ENABLED

namespace tenet::telemetry {
namespace {

/// Installs a deterministic clock on the global tracer (the event log
/// stamps from tracer().clock_now()) and restores everything on exit.
class FakeEventClock {
 public:
  explicit FakeEventClock(uint64_t start = 1000) : t_(start) {
    tracer().reset();
    tracer().set_clock(&FakeEventClock::read, this);
  }
  ~FakeEventClock() {
    tracer().clear_clock(this);
    tracer().reset();
  }
  void advance(uint64_t us) { t_ += us; }

 private:
  static uint64_t read(void* ctx) {
    return static_cast<FakeEventClock*>(ctx)->t_;
  }
  uint64_t t_;
};

TEST(EventLog, EmitStampsSequenceAndVirtualClock) {
  FakeEventClock clock(500);
  EventLog log(8);
  log.emit(EventType::kRekey, /*node=*/3, /*a=*/7);
  clock.advance(250);
  log.emit(EventType::kShardDown, /*node=*/0, /*a=*/2, /*b=*/1);

  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].ts_us, 500u);
  EXPECT_EQ(events[0].type, EventType::kRekey);
  EXPECT_EQ(events[0].node, 3u);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[0].b, 0u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[1].ts_us, 750u);
  EXPECT_EQ(events[1].b, 1u);
  EXPECT_EQ(log.total(), 2u);
  EXPECT_EQ(log.evicted(), 0u);
  EXPECT_TRUE(log.consistent());
}

TEST(EventLog, RingEvictsOldestAndCountsSurviveEviction) {
  FakeEventClock clock;
  EventLog log(4);
  for (int i = 0; i < 10; ++i) log.emit(EventType::kEpcPressure, 1);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total(), 10u);
  EXPECT_EQ(log.evicted(), 6u);
  // Oldest-first snapshot holds exactly the last four seqs.
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].seq, 7 + i);
  // Per-type counts include the evicted emissions.
  EXPECT_EQ(log.count(EventType::kEpcPressure), 10u);
  EXPECT_EQ(log.count(EventType::kRekey), 0u);
  EXPECT_TRUE(log.consistent());
}

TEST(EventLog, JsonlMatchesExportContract) {
  FakeEventClock clock(42);
  EventLog log(4);
  log.emit(EventType::kFailoverAdopted, /*node=*/2, /*a=*/1, /*b=*/9);
  EXPECT_EQ(log.jsonl(),
            "{\"seq\":1,\"ts_us\":42,\"type\":\"failover_adopted\","
            "\"node\":2,\"a\":1,\"b\":9}\n");
}

TEST(EventLog, WriteJsonlRoundTrips) {
  // The export bundle writes the process-wide log as events.jsonl.
  FakeEventClock clock;
  EventLog& log = event_log();
  log.clear();
  log.emit(EventType::kPartitionCut, 5, 6);
  log.emit(EventType::kPartitionHeal, 0);
  const std::string dir = ::testing::TempDir() + "tenet_events_test";
  ASSERT_TRUE(write_bundle(dir, "events_test"));
  std::ifstream in(dir + "/events.jsonl");
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), log.jsonl());
  EXPECT_NE(buf.str().find("\"type\":\"partition_cut\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(EventLog, ClearRestartsSequenceAndCounts) {
  FakeEventClock clock;
  EventLog log(2);
  for (int i = 0; i < 5; ++i) log.emit(EventType::kRunCapHit, 0);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total(), 0u);
  EXPECT_EQ(log.evicted(), 0u);
  EXPECT_EQ(log.count(EventType::kRunCapHit), 0u);
  log.emit(EventType::kRunCapHit, 0);
  EXPECT_EQ(log.snapshot().front().seq, 1u);
  EXPECT_TRUE(log.consistent());
}

TEST(EventLog, SetCapacityDropsRetainedButKeepsTotals) {
  FakeEventClock clock;
  EventLog log(8);
  for (int i = 0; i < 5; ++i) log.emit(EventType::kEnclaveRestart, 1);
  log.set_capacity(2);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total(), 5u);  // emissions keep counting across resize
  log.emit(EventType::kEnclaveRestart, 1);
  EXPECT_EQ(log.snapshot().front().seq, 6u);
  EXPECT_EQ(log.count(EventType::kEnclaveRestart), 6u);
  EXPECT_TRUE(log.consistent());
  // Zero clamps to one slot rather than wedging the ring.
  log.set_capacity(0);
  EXPECT_EQ(log.capacity(), 1u);
  log.emit(EventType::kEnclaveRestart, 1);
  log.emit(EventType::kEnclaveRestart, 1);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.consistent());
}

TEST(EventLog, MacroRespectsRuntimeFlagAndTargetsGlobalLog) {
  FakeEventClock clock;
  event_log().clear();
  set_enabled(false);
  TENET_EVENT(kRekey, 1);
  EXPECT_EQ(event_log().total(), 0u);
  set_enabled(true);
  TENET_EVENT(kRekey, 1, 2, 3);
  set_enabled(false);
  ASSERT_EQ(event_log().total(), 1u);
  const auto events = event_log().snapshot();
  EXPECT_EQ(events[0].type, EventType::kRekey);
  EXPECT_EQ(events[0].node, 1u);
  EXPECT_EQ(events[0].a, 2u);
  EXPECT_EQ(events[0].b, 3u);
  event_log().clear();
}

TEST(EventLog, EmitNeverPerturbsSpanTimestamps) {
  // clock_now() is a non-mutating peek: stamping an event must not consume
  // a tick of the tracer's strictly-monotone span clock, so trace exports
  // are byte-identical with the event log on or off.
  tracer().reset();
  const uint64_t before = tracer().now();
  EventLog log(4);
  log.emit(EventType::kRekey, 1);
  log.emit(EventType::kRekey, 1);
  EXPECT_EQ(tracer().now(), before + 1);
  tracer().reset();
}

TEST(EventLog, TypeNamesAreStable) {
  // Export contract with tools/analyze.py — append-only.
  EXPECT_EQ(event_type_name(EventType::kFailoverAdopted), "failover_adopted");
  EXPECT_EQ(event_type_name(EventType::kRekey), "rekey");
  EXPECT_EQ(event_type_name(EventType::kRollbackRefused), "rollback_refused");
  EXPECT_EQ(event_type_name(EventType::kEpcPressure), "epc_pressure");
  EXPECT_EQ(event_type_name(EventType::kRunCapHit), "run_cap_hit");
  EXPECT_EQ(event_type_name(EventType::kPartitionCut), "partition_cut");
  EXPECT_EQ(event_type_name(EventType::kPartitionHeal), "partition_heal");
  EXPECT_EQ(event_type_name(EventType::kEnclaveRestart), "enclave_restart");
  EXPECT_EQ(event_type_name(EventType::kShardDown), "shard_down");
  EXPECT_EQ(event_type_name(EventType::kShardUp), "shard_up");
  EXPECT_EQ(event_type_name(EventType::kSnapshotInstalled),
            "snapshot_installed");
}

}  // namespace
}  // namespace tenet::telemetry

#endif  // TENET_TELEMETRY_ENABLED
