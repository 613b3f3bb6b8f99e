#include "telemetry/health.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "telemetry/events.h"
#include "telemetry/scrape.h"
#include "telemetry/trace.h"

#if TENET_TELEMETRY_ENABLED

namespace tenet::telemetry {
namespace {

/// Deterministic clock for event timestamps (the log stamps from
/// tracer().clock_now()); restores the tracer on exit.
class FakeEventClock {
 public:
  explicit FakeEventClock(uint64_t start = 0) : t_(start) {
    tracer().reset();
    tracer().set_clock(&FakeEventClock::read, this);
  }
  ~FakeEventClock() {
    tracer().clear_clock(this);
    tracer().reset();
  }
  void set(uint64_t us) { t_ = us; }

 private:
  static uint64_t read(void* ctx) {
    return static_cast<FakeEventClock*>(ctx)->t_;
  }
  uint64_t t_;
};

const ShardHealth* shard_of(const FleetHealth& fleet, uint32_t id) {
  for (const auto& s : fleet.shards) {
    if (s.shard == id) return &s;
  }
  return nullptr;
}

TEST(HealthModel, EmptyInputsReadHealthy) {
  const HealthModel model;
  Scraper scraper;
  EventLog log(8);
  const FleetHealth fleet = model.evaluate(scraper, log);
  EXPECT_EQ(fleet.state, HealthState::kHealthy);
  EXPECT_EQ(fleet.goodput, 1.0);
  EXPECT_FALSE(fleet.goodput_breached);
  EXPECT_TRUE(fleet.shards.empty());
}

TEST(HealthModel, DownShardReadsFailedUntilUpThenHealthy) {
  FakeEventClock clock(1000);
  const HealthModel model;
  Scraper scraper;
  EventLog log(8);
  log.emit(EventType::kShardDown, /*node=*/0, /*a=*/2);

  FleetHealth fleet = model.evaluate(scraper, log);
  const ShardHealth* down = shard_of(fleet, 2);
  ASSERT_NE(down, nullptr);
  EXPECT_EQ(down->state, HealthState::kFailed);
  EXPECT_EQ(down->down_since_us, 1000u);
  EXPECT_EQ(fleet.state, HealthState::kFailed);  // worst shard wins

  // Heal inside the 400 ms budget: healthy again, duration attributed.
  clock.set(201000);
  log.emit(EventType::kShardUp, /*node=*/1, /*a=*/2);
  fleet = model.evaluate(scraper, log);
  const ShardHealth* up = shard_of(fleet, 2);
  ASSERT_NE(up, nullptr);
  EXPECT_EQ(up->state, HealthState::kHealthy);
  EXPECT_EQ(up->down_since_us, 0u);
  EXPECT_EQ(up->last_heal_us, 200000u);
  EXPECT_FALSE(up->slo_breached);
  EXPECT_EQ(fleet.state, HealthState::kHealthy);
}

TEST(HealthModel, HealOverBudgetMarksShardDegraded) {
  FakeEventClock clock(0);
  const HealthModel model;  // default heal budget: 400 ms
  Scraper scraper;
  EventLog log(8);
  log.emit(EventType::kShardDown, 0, /*a=*/1);
  clock.set(500000);  // 500 ms outage
  log.emit(EventType::kShardUp, 0, /*a=*/1);

  const FleetHealth fleet = model.evaluate(scraper, log);
  const ShardHealth* s = shard_of(fleet, 1);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->state, HealthState::kDegraded);
  EXPECT_TRUE(s->slo_breached);
  EXPECT_EQ(s->last_heal_us, 500000u);
  EXPECT_EQ(fleet.state, HealthState::kDegraded);
}

TEST(HealthModel, RollbackRefusedInWindowDegrades) {
  FakeEventClock clock(100);
  const HealthModel model;
  Scraper scraper;
  EventLog log(8);
  log.emit(EventType::kRollbackRefused, /*node=*/3, /*a=*/3);
  const FleetHealth fleet = model.evaluate(scraper, log);
  const ShardHealth* s = shard_of(fleet, 3);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->state, HealthState::kDegraded);
  EXPECT_EQ(s->rollbacks_refused, 1u);
}

TEST(HealthModel, FailoverAndSnapshotCountsAttributeToAffectedShard) {
  FakeEventClock clock(100);
  const HealthModel model;
  Scraper scraper;
  EventLog log(8);
  // Shard 1 adopted shard 4's batch; shard 4 later merged a snapshot.
  log.emit(EventType::kFailoverAdopted, /*node=*/1, /*a=*/4, /*b=*/6);
  log.emit(EventType::kSnapshotInstalled, /*node=*/4, /*a=*/4, /*b=*/12);
  const FleetHealth fleet = model.evaluate(scraper, log);
  const ShardHealth* s = shard_of(fleet, 4);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->failovers_adopted, 1u);
  EXPECT_EQ(s->snapshots_installed, 1u);
  EXPECT_EQ(s->state, HealthState::kHealthy);  // facts, not verdicts
}

TEST(HealthModel, WindowQuantileUsesBucketDeltaOnly) {
  Histogram base;
  for (int i = 0; i < 10; ++i) base.record(1);  // old samples, tiny values
  Histogram tip = base;
  for (int i = 0; i < 10; ++i) tip.record(4096);  // window samples

  // The window holds only the ten 4096-ish samples: every quantile lands
  // in that log2 bucket [4096, 8191], never in the old bucket of 1s.
  EXPECT_EQ(HealthModel::window_quantile(base, tip, 0.0), 4096u);
  EXPECT_GE(HealthModel::window_quantile(base, tip, 0.99), 4096u);
  EXPECT_LE(HealthModel::window_quantile(base, tip, 0.99), 8191u);
  // Degenerate windows read as zero.
  EXPECT_EQ(HealthModel::window_quantile(tip, tip, 0.5), 0u);
  EXPECT_EQ(HealthModel::window_quantile(tip, base, 0.5), 0u);
}

TEST(HealthModel, GoodputAndHopLatencyComeFromScrapeWindows) {
  FakeEventClock clock(100);
  SloPolicy policy;
  policy.window_samples = 2;
  const HealthModel model(policy);
  EventLog log(8);
  Scraper scraper;

  Counter& delivered = registry().counter("net.messages_delivered");
  Counter& dropped = registry().counter("net.messages_dropped");
  Histogram& hops = registry().histogram("shard.s41.hop_latency_us");

  scraper.scrape(/*ts_us=*/1000);  // window base
  delivered.add(3);
  dropped.add(7);  // 0.3 goodput over the window — under the 0.5 floor
  for (int i = 0; i < 10; ++i) hops.record(8192);  // p99 over the 5 ms cap
  scraper.scrape(/*ts_us=*/2000);  // window tip

  const FleetHealth fleet = model.evaluate(scraper, log);
  EXPECT_EQ(fleet.ts_us, 2000u);
  EXPECT_DOUBLE_EQ(fleet.goodput, 0.3);
  EXPECT_TRUE(fleet.goodput_breached);
  // The hop histogram names the shard; it gets a row without any event.
  const ShardHealth* s = shard_of(fleet, 41);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->hops_in_window, 10u);
  EXPECT_GE(s->p99_hop_latency_us, 8192u);
  EXPECT_TRUE(s->slo_breached);
  EXPECT_EQ(s->state, HealthState::kDegraded);
  EXPECT_EQ(fleet.state, HealthState::kDegraded);
}

TEST(HealthModel, GoodputCountsOnlyOutcomesResolvedInTheWindow) {
  SloPolicy policy;
  policy.window_samples = 2;
  const HealthModel model(policy);
  EventLog log(8);
  Scraper scraper;
  Counter& sent = registry().counter("net.messages_sent");
  Counter& delivered = registry().counter("net.messages_delivered");
  Counter& dropped = registry().counter("net.messages_dropped");

  scraper.scrape(1'000);
  sent.add(4);
  delivered.add(5);  // one of them was sent before the window opened
  scraper.scrape(2'000);
  EXPECT_DOUBLE_EQ(model.evaluate(scraper, log).goodput, 1.0);  // not 1.25

  sent.add(10);
  delivered.add(10);  // in-flight arrivals make up for the sends...
  dropped.add(3);     // ...but the window's drops still count
  scraper.scrape(3'000);
  const FleetHealth fleet = model.evaluate(scraper, log);
  EXPECT_DOUBLE_EQ(fleet.goodput, 10.0 / 13.0);
  EXPECT_FALSE(fleet.goodput_breached);

  // Nothing resolved in the window: no evidence of loss.
  sent.add(6);
  scraper.scrape(4'000);
  EXPECT_DOUBLE_EQ(model.evaluate(scraper, log).goodput, 1.0);
}

TEST(HealthModel, ReportJsonIsDeterministicAndCarriesVerdicts) {
  FakeEventClock clock(100);
  const HealthModel model;
  Scraper scraper;
  EventLog log(8);
  log.emit(EventType::kShardDown, 0, /*a=*/1);
  log.emit(EventType::kEpcPressure, 2, /*a=*/64);

  const std::string a = model.report_json(scraper, log);
  const std::string b = model.report_json(scraper, log);
  EXPECT_EQ(a, b);  // pure function of (scraper, log, policy)
  EXPECT_NE(a.find("\"state\":\"failed\""), std::string::npos);
  EXPECT_NE(a.find("\"epc_pressure\":1"), std::string::npos);
  EXPECT_NE(a.find("\"policy\":"), std::string::npos);
  EXPECT_NE(a.find("\"shards\":[{\"shard\":1"), std::string::npos);
}

/// The part of report_json() after `"windows":`.
std::string windows_json(const std::string& report) {
  const size_t at = report.find("\"windows\":");
  return at == std::string::npos ? std::string()
                                 : report.substr(at + 10, report.size() - at - 11);
}

TEST(HealthModel, WindowsCarryEveryScrapeWindowWithItsBreaches) {
  // A healed kill-one-shard drill: shard 2 is down over [1, 90] ms, shard
  // 1's replication-hop p99 blows past the cap inside the outage, and a
  // late lossy stretch drags goodput under the floor.
  FakeEventClock clock(1'000);
  const HealthModel model;  // 8-scrape windows, 5 ms cap, 0.5 floor
  EventLog log(8);
  log.emit(EventType::kShardDown, /*node=*/0, /*a=*/2);
  clock.set(1'500);
  log.emit(EventType::kFailoverAdopted, /*node=*/1, /*a=*/2, /*b=*/4);
  clock.set(90'000);
  log.emit(EventType::kShardUp, /*node=*/0, /*a=*/2);
  clock.set(95'000);
  log.emit(EventType::kSnapshotInstalled, /*node=*/2, /*a=*/2, /*b=*/12);

  Counter& delivered = registry().counter("net.messages_delivered");
  Counter& dropped = registry().counter("net.messages_dropped");
  Histogram& hops = registry().histogram("shard.s1.hop_latency_us");
  Scraper scraper;
  const auto hop_samples = [&hops](int n, uint64_t us) {
    for (int i = 0; i < n; ++i) hops.record(us);
  };
  delivered.add(10);
  hop_samples(20, 256);
  scraper.scrape(0);
  delivered.add(26);
  dropped.add(4);
  hop_samples(30, 8192);  // the in-outage spike
  scraper.scrape(50'000);
  delivered.add(40);
  hop_samples(40, 256);
  scraper.scrape(200'000);
  dropped.add(100);  // nothing delivered: 66/170 over the 8-scrape window
  scraper.scrape(300'000);

  EXPECT_EQ(
      windows_json(model.report_json(scraper, log)),
      "[{\"start_us\":0,\"end_us\":50000,\"goodput\":0.866667,"
      "\"shards\":{\"1\":{\"p99_us\":16031,\"hops\":30}},"
      "\"breaches\":[{\"kind\":\"hop_latency\",\"shard\":1,\"p99_us\":16031}]},"
      "{\"start_us\":0,\"end_us\":200000,\"goodput\":0.942857,"
      "\"shards\":{\"1\":{\"p99_us\":15922,\"hops\":70}},"
      "\"breaches\":[{\"kind\":\"hop_latency\",\"shard\":1,\"p99_us\":15922}]},"
      "{\"start_us\":0,\"end_us\":300000,\"goodput\":0.388235,"
      "\"shards\":{\"1\":{\"p99_us\":15922,\"hops\":70}},"
      "\"breaches\":[{\"kind\":\"hop_latency\",\"shard\":1,\"p99_us\":15922},"
      "{\"kind\":\"goodput\",\"shard\":null,\"goodput\":0.388235}]}]");

  // The newest window is the one evaluate() judges.
  const FleetHealth fleet = model.evaluate(scraper, log);
  EXPECT_EQ(fleet.ts_us, 300'000u);
  EXPECT_TRUE(fleet.goodput_breached);
  const ShardHealth* s1 = shard_of(fleet, 1);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->p99_hop_latency_us, 15'922u);
  EXPECT_EQ(s1->hops_in_window, 70u);
  EXPECT_TRUE(s1->slo_breached);
}

TEST(HealthModel, WindowsNameShardsOnlyFromHopHistograms) {
  SloPolicy policy;
  policy.window_samples = 2;  // each window spans two adjacent scrapes
  const HealthModel model(policy);
  EventLog log(8);
  Scraper scraper;
  scraper.scrape(1'000);
  EXPECT_EQ(windows_json(model.report_json(scraper, log)), "[]");  // no tip yet
  registry().histogram("shard.s7.hop_latency_us").record(100);
  registry().histogram("shard.s12.hop_latency_us").record(100);
  registry().histogram("shard.sx.hop_latency_us").record(100);
  registry().histogram("shard.s.hop_latency_us").record(100);
  registry().histogram("net.messages_sent").record(100);
  scraper.scrape(2'000);
  registry().histogram("shard.s7.hop_latency_us").record(100);
  scraper.scrape(3'000);

  // Only shard.s<digits>.hop_latency_us names a shard, and a window lists
  // only the shards with hops inside it.
  EXPECT_EQ(windows_json(model.report_json(scraper, log)),
            "[{\"start_us\":1000,\"end_us\":2000,\"goodput\":1.000000,"
            "\"shards\":{\"7\":{\"p99_us\":64,\"hops\":1},"
            "\"12\":{\"p99_us\":64,\"hops\":1}},\"breaches\":[]},"
            "{\"start_us\":2000,\"end_us\":3000,\"goodput\":1.000000,"
            "\"shards\":{\"7\":{\"p99_us\":64,\"hops\":1}},"
            "\"breaches\":[]}]");
  const FleetHealth fleet = model.evaluate(scraper, log);
  const ShardHealth* s12 = shard_of(fleet, 12);
  ASSERT_NE(s12, nullptr);  // a row, but no hops in the newest window
  EXPECT_EQ(s12->hops_in_window, 0u);
  ASSERT_NE(shard_of(fleet, 7), nullptr);
  EXPECT_EQ(shard_of(fleet, 7)->hops_in_window, 1u);
}

}  // namespace
}  // namespace tenet::telemetry

#endif  // TENET_TELEMETRY_ENABLED
