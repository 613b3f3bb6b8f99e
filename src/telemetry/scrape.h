// Periodic registry scraper: time-series snapshots of every counter,
// gauge and histogram, taken on the simulator's virtual clock.
//
// The registry (telemetry.h) is a live point-in-time view; end-of-run
// exports can't answer "when did EPC pressure spike" or "how did the
// transition rate evolve across the handshake". A Scraper fills that gap:
// Simulator::attach_scraper polls it at a fixed virtual-time cadence and
// each scrape copies the full registry state into a bounded in-memory ring
// (oldest samples evicted), so memory stays O(capacity) regardless of run
// length and exports stay deterministic for a fixed seed.
//
// jsonl() renders one JSON object per retained sample
// ({"seq":N,"ts_us":T,"metrics":{...flat metrics JSON...}}), matching the
// Registry::metrics_json shape; the export bundle (export.h) writes it as
// scrapes.jsonl.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.h"

namespace tenet::telemetry {

class Scraper {
 public:
  /// `capacity`: retained samples (ring size); older samples are evicted.
  explicit Scraper(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  static constexpr size_t kDefaultCapacity = 256;

  /// Copies the current registry() state into the ring, stamped with the
  /// caller's clock (virtual-time microseconds from the Simulator).
  void scrape(uint64_t ts_us);

  /// Total scrapes taken (including evicted ones).
  [[nodiscard]] uint64_t total_scrapes() const { return total_; }
  /// Samples currently retained.
  [[nodiscard]] size_t size() const { return samples_.size(); }
  [[nodiscard]] size_t capacity() const { return capacity_; }
  void clear() {
    samples_.clear();
    total_ = 0;
  }

  /// One JSON object per retained sample, oldest first.
  [[nodiscard]] std::string jsonl() const;

  struct Sample {
    uint64_t seq = 0;  // 0-based scrape index (survives eviction)
    uint64_t ts_us = 0;
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, std::pair<int64_t, int64_t>>> gauges;
    std::vector<std::pair<std::string, Histogram>> histograms;
  };
  /// Retained samples, oldest first (consumed by the health model).
  [[nodiscard]] const std::deque<Sample>& samples() const { return samples_; }

 private:
  size_t capacity_;
  uint64_t total_ = 0;
  std::deque<Sample> samples_;
};

}  // namespace tenet::telemetry
