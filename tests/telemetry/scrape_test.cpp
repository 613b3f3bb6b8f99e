#include "telemetry/scrape.h"

#include <gtest/gtest.h>

#include <string>

namespace tenet::telemetry {
namespace {

// The registry is process-global; each test uses its own uniquely-named
// instruments so parallel-suite state never collides.

TEST(Scraper, RingEvictsOldestButKeepsTotal) {
  Scraper s(/*capacity=*/2);
  EXPECT_EQ(s.capacity(), 2u);
  s.scrape(1000);
  s.scrape(2000);
  s.scrape(3000);
  EXPECT_EQ(s.total_scrapes(), 3u);
  EXPECT_EQ(s.size(), 2u);
  const std::string jsonl = s.jsonl();
  // seq is the global scrape index, so eviction is visible: the retained
  // window is samples 1 and 2, sample 0 is gone.
  EXPECT_EQ(jsonl.find("\"seq\":0,"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("{\"seq\":1,\"ts_us\":2000,"), std::string::npos);
  EXPECT_NE(jsonl.find("{\"seq\":2,\"ts_us\":3000,"), std::string::npos);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.total_scrapes(), 0u);
}

TEST(Scraper, ZeroCapacityMeansOne) {
  Scraper s(0);
  EXPECT_EQ(s.capacity(), 1u);
  s.scrape(10);
  s.scrape(20);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Scraper, JsonlSnapshotsRegistryState) {
  registry().counter("scrapetest.jsonl.hits").add(7);
  registry().gauge("scrapetest.jsonl.depth").set(9);
  registry().gauge("scrapetest.jsonl.depth").set(4);
  registry().histogram("scrapetest.jsonl.lat").record(100);

  Scraper s;
  s.scrape(1234);
  registry().counter("scrapetest.jsonl.hits").add(100);  // after the scrape
  const std::string jsonl = s.jsonl();
  // One line per sample, each a standalone JSON object.
  EXPECT_EQ(jsonl.back(), '\n');
  // The sample holds the value at scrape time, not the live value.
  EXPECT_NE(jsonl.find("\"scrapetest.jsonl.hits\":7"), std::string::npos)
      << jsonl;
  EXPECT_NE(jsonl.find("\"scrapetest.jsonl.depth\":{\"value\":4,\"max\":9}"),
            std::string::npos)
      << jsonl;
  // Histograms render in the same flat-JSON shape as metrics_json.
  EXPECT_NE(jsonl.find("\"scrapetest.jsonl.lat\":{\"count\":1,\"sum\":100,"),
            std::string::npos)
      << jsonl;
}

}  // namespace
}  // namespace tenet::telemetry
