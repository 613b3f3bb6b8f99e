#include "telemetry/export.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/events.h"
#include "telemetry/health.h"
#include "telemetry/scrape.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace tenet::telemetry {
namespace {

namespace fs = std::filesystem;

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A fresh, empty bundle directory per test, removed afterwards.
class ExportBundle : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("tenet_export_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The manifest write_bundle must produce for `files`.
  static std::string manifest(const std::string& files) {
    return std::string("{\"bench\":\"bench_x\",\"telemetry\":") +
           (TENET_TELEMETRY_ENABLED ? "true" : "false") + ",\"ndebug\":" +
           (kNdebug ? "true" : "false") + ",\"files\":[" + files + "]}\n";
  }

  fs::path dir_;
};

TEST_F(ExportBundle, WritesTraceMetricsEventsAndManifest) {
  registry().counter("exporttest.core.hits").add(3);
  ASSERT_TRUE(write_bundle(dir_.string(), "bench_x"));

  EXPECT_EQ(read_file(dir_ / "manifest.json"),
            manifest(R"("trace.json","metrics.json","events.jsonl")"));
  EXPECT_EQ(read_file(dir_ / "trace.json"), tracer().chrome_json() + "\n");
  EXPECT_EQ(read_file(dir_ / "metrics.json"),
            registry().metrics_json() + "\n");
  EXPECT_TRUE(fs::exists(dir_ / "events.jsonl"));
  EXPECT_FALSE(fs::exists(dir_ / "scrapes.jsonl"));
  EXPECT_FALSE(fs::exists(dir_ / "health.json"));
}

TEST_F(ExportBundle, ScraperAndHealthModelAddTheirFiles) {
  registry().counter("exporttest.scrape.hits").add(1);
  Scraper scraper;
  scraper.scrape(1000);
  scraper.scrape(2000);
#if TENET_TELEMETRY_ENABLED
  const HealthModel model;
  ASSERT_TRUE(write_bundle(dir_.string(), "bench_x", &scraper, &model));
  EXPECT_EQ(read_file(dir_ / "manifest.json"),
            manifest(R"("trace.json","metrics.json","events.jsonl",)"
                     R"("scrapes.jsonl","health.json")"));
  EXPECT_EQ(read_file(dir_ / "health.json"),
            model.report_json(scraper, event_log()));
  EXPECT_EQ(read_file(dir_ / "events.jsonl"), event_log().jsonl());
#else
  ASSERT_TRUE(write_bundle(dir_.string(), "bench_x", &scraper));
  EXPECT_EQ(read_file(dir_ / "manifest.json"),
            manifest(R"("trace.json","metrics.json","events.jsonl",)"
                     R"("scrapes.jsonl")"));
  EXPECT_EQ(read_file(dir_ / "events.jsonl"), "");
#endif
  EXPECT_EQ(read_file(dir_ / "scrapes.jsonl"), scraper.jsonl());
}

TEST_F(ExportBundle, FileLeftByAnEarlierExportIsNotListed) {
  Scraper scraper;
  scraper.scrape(1000);
  ASSERT_TRUE(write_bundle(dir_.string(), "bench_x", &scraper));
  ASSERT_TRUE(write_bundle(dir_.string(), "bench_x"));
  // The first export's scrapes stay on disk; the manifest lists only what
  // the second export wrote.
  EXPECT_TRUE(fs::exists(dir_ / "scrapes.jsonl"));
  EXPECT_EQ(read_file(dir_ / "manifest.json"),
            manifest(R"("trace.json","metrics.json","events.jsonl")"));
}

TEST_F(ExportBundle, FailedExportLeavesNoEarlierManifest) {
  ASSERT_TRUE(write_bundle(dir_.string(), "bench_x"));
  // A directory where the metrics file goes makes the second export fail
  // after it has rewritten the trace.
  fs::remove(dir_ / "metrics.json");
  fs::create_directory(dir_ / "metrics.json");
  EXPECT_FALSE(write_bundle(dir_.string(), "bench_x"));
  EXPECT_FALSE(fs::exists(dir_ / "manifest.json"));
}

TEST_F(ExportBundle, UnwritableDirectoryFailsWithoutManifest) {
  fs::create_directories(dir_);
  std::ofstream(dir_ / "file") << "not a directory";
  const fs::path bundle = dir_ / "file" / "bundle";
  EXPECT_FALSE(write_bundle(bundle.string(), "bench_x"));
  EXPECT_FALSE(fs::exists(bundle / "manifest.json"));
}

}  // namespace
}  // namespace tenet::telemetry
