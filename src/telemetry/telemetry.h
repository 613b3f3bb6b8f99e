// Metrics registry: counters, gauges, and log2-bucketed histograms.
//
// The paper's evaluation (§5) is instruction counting at the enclave
// boundary; this module makes those counts continuously observable instead
// of only visible as end-of-run cost-model totals. Instrumentation sites
// use the TENET_COUNT / TENET_GAUGE_* / TENET_HISTOGRAM macros below, which
// compile to nothing when TENET_TELEMETRY_ENABLED is 0 and cost a single
// predictable branch on a global flag when built in but switched off (the
// default at process start).
//
// Determinism: instruments hold plain integers and are keyed by name, so a
// scripted run produces byte-identical exports. Like the crypto work meter
// this is single-threaded state — the simulator and the SGX emulation are
// single-threaded by design.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#ifndef TENET_TELEMETRY_ENABLED
#define TENET_TELEMETRY_ENABLED 1
#endif

namespace tenet::telemetry {

/// Monotone event count (EENTER executed, record sealed, ...).
class Counter {
 public:
  void add(uint64_t n = 1) { value_ += n; }
  [[nodiscard]] uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time level (resident EPC pages, pending events); tracks the
/// high-water mark alongside the current value.
class Gauge {
 public:
  void set(int64_t v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  void add(int64_t delta) { set(value_ + delta); }
  [[nodiscard]] int64_t value() const { return value_; }
  [[nodiscard]] int64_t max_value() const { return max_; }
  void reset() { value_ = max_ = 0; }

 private:
  int64_t value_ = 0;
  int64_t max_ = 0;
};

/// Fixed log2-bucket histogram: bucket i counts samples whose bit width is
/// i, i.e. bucket 0 holds the value 0 and bucket i>=1 holds values in
/// [2^(i-1), 2^i). 64 buckets cover the full uint64_t range with no
/// allocation and no configuration, which keeps exports deterministic.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;  // bit widths 0..64

  void record(uint64_t v) {
    buckets_[bucket_of(v)] += 1;
    count_ += 1;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] static size_t bucket_of(uint64_t v) {
    return static_cast<size_t>(std::bit_width(v));
  }
  /// Smallest value landing in bucket i.
  [[nodiscard]] static uint64_t bucket_floor(size_t i) {
    return i == 0 ? 0 : uint64_t{1} << (i - 1);
  }

  [[nodiscard]] uint64_t count() const { return count_; }
  [[nodiscard]] uint64_t sum() const { return sum_; }
  /// Undefined (0) until the first sample.
  [[nodiscard]] uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] uint64_t max() const { return max_; }
  [[nodiscard]] uint64_t bucket(size_t i) const { return buckets_[i]; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }
  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside the
  /// log2 bucket holding the target rank, clamped to the observed
  /// [min, max]. Exact only when a bucket holds one distinct value; the
  /// flat-JSON export emits p50/p90/p99 from this.
  [[nodiscard]] uint64_t quantile(double q) const;
  void reset() { *this = Histogram{}; }

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

/// Name -> instrument store. Instruments are created on first use and are
/// never destroyed or moved, so references handed out (including the ones
/// cached in the macros below) stay valid across reset_values().
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zeroes every instrument's value; keeps the instruments themselves.
  void reset_values();

  /// Flat JSON export: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Keys are sorted (map order), so output is deterministic.
  [[nodiscard]] std::string metrics_json() const;

  using CounterMap = std::map<std::string, std::unique_ptr<Counter>, std::less<>>;
  using GaugeMap = std::map<std::string, std::unique_ptr<Gauge>, std::less<>>;
  using HistogramMap =
      std::map<std::string, std::unique_ptr<Histogram>, std::less<>>;
  [[nodiscard]] const CounterMap& counters() const { return counters_; }
  [[nodiscard]] const GaugeMap& gauges() const { return gauges_; }
  [[nodiscard]] const HistogramMap& histograms() const { return histograms_; }

 private:
  CounterMap counters_;
  GaugeMap gauges_;
  HistogramMap histograms_;
};

/// Process-wide registry used by the instrumentation macros.
Registry& registry();

namespace detail {
/// Storage for the runtime switch; read through enabled() only. Lives in
/// the header so the per-macro-site guard branch inlines to one load
/// instead of a cross-TU call (the check runs several times per simulated
/// event on the hot path).
inline bool g_enabled = false;
}  // namespace detail

/// Runtime switch. Defaults to off: with telemetry off every macro is one
/// branch on this flag and nothing else.
[[nodiscard]] inline bool enabled() { return detail::g_enabled; }
inline void set_enabled(bool on) { detail::g_enabled = on; }

namespace detail {
/// Appends `s` as a JSON string (quotes included), escaping control
/// characters, quotes and backslashes. Shared by the metrics, trace and
/// scrape exporters so arbitrary labels can't produce invalid JSON.
void append_json_escaped(std::string& out, std::string_view s);
/// Flat-JSON object for one histogram (count/sum/min/max/p50/p90/p99 +
/// sparse buckets) — shared by metrics_json() and scraper samples.
std::string histogram_json(const Histogram& h);
}  // namespace detail

}  // namespace tenet::telemetry

// --- Instrumentation macros -------------------------------------------------
//
// Each site caches its instrument reference in a function-local static, so
// the name lookup happens once per site; afterwards an enabled hit is one
// branch + one add. `name` must be a string literal (or otherwise outlive
// the first call).

#if TENET_TELEMETRY_ENABLED

#define TENET_COUNT(name, ...)                                              \
  do {                                                                      \
    if (::tenet::telemetry::enabled()) {                                    \
      static ::tenet::telemetry::Counter& tenet_tlm_c =                     \
          ::tenet::telemetry::registry().counter(name);                     \
      tenet_tlm_c.add(__VA_ARGS__);                                         \
    }                                                                       \
  } while (0)

#define TENET_GAUGE_SET(name, v)                                            \
  do {                                                                      \
    if (::tenet::telemetry::enabled()) {                                    \
      static ::tenet::telemetry::Gauge& tenet_tlm_g =                       \
          ::tenet::telemetry::registry().gauge(name);                       \
      tenet_tlm_g.set(v);                                                   \
    }                                                                       \
  } while (0)

#define TENET_GAUGE_ADD(name, d)                                            \
  do {                                                                      \
    if (::tenet::telemetry::enabled()) {                                    \
      static ::tenet::telemetry::Gauge& tenet_tlm_g =                       \
          ::tenet::telemetry::registry().gauge(name);                       \
      tenet_tlm_g.add(d);                                                   \
    }                                                                       \
  } while (0)

#define TENET_HISTOGRAM(name, v)                                            \
  do {                                                                      \
    if (::tenet::telemetry::enabled()) {                                    \
      static ::tenet::telemetry::Histogram& tenet_tlm_h =                   \
          ::tenet::telemetry::registry().histogram(name);                   \
      tenet_tlm_h.record(v);                                                \
    }                                                                       \
  } while (0)

#else  // telemetry compiled out

#define TENET_COUNT(name, ...) ((void)0)
#define TENET_GAUGE_SET(name, v) ((void)0)
#define TENET_GAUGE_ADD(name, d) ((void)0)
#define TENET_HISTOGRAM(name, v) ((void)0)

#endif  // TENET_TELEMETRY_ENABLED
