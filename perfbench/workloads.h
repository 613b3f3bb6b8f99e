// The four workloads. Each is a closed loop with one op in flight: an op
// issues its calls and runs the simulator until it is quiet, the way a
// caller waits for its reply. The benchmark generates every input from the
// seed (SplitMix64 below, independent of the library's own DRBG) and hands
// the program only those inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "metrics.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Wall-time samples of calls into a layer, keyed by metric stem. Only
/// traced ops record; untraced ops pass no Trace and pay one null check.
class Trace {
 public:
  void add(const std::string& name, double seconds) {
    samples_[name].push_back(seconds);
  }
  [[nodiscard]] const std::map<std::string, std::vector<double>>& samples()
      const {
    return samples_;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Times one call into a layer when `trace` is set.
class Span {
 public:
  Span(Trace* trace, const char* name) : trace_(trace), name_(name) {
    if (trace_ != nullptr) t0_ = SteadyClock::now();
  }
  ~Span() {
    if (trace_ != nullptr) trace_->add(name_, seconds_since(t0_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_;
  const char* name_;
  SteadyClock::time_point t0_;
};

/// Seeded input generator (SplitMix64).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// FNV-1a (64-bit) over bytes, for output checksums.
inline uint64_t fnv1a(uint64_t h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}
constexpr uint64_t kFnvBasis = 14695981039346656037ull;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Fresh deployments, each set up and measured over the same window.
  [[nodiscard]] virtual size_t deployments() const { return 3; }

  /// Ops over which every end-to-end metric and the output checksum are
  /// taken, whatever the wall-clock budget allows: a faster build measures
  /// the same work, not more of it. Sized so that the deployments' windows
  /// take about 8 s of a 10 s run at the commit that set it (Release build,
  /// 4-core x86-64 VM), or one whole rotation of op kinds.
  [[nodiscard]] virtual size_t window_ops() const = 0;

  /// Checks the freshly set-up deployment and prepares output oracles.
  /// Runs after set-up is timed.
  virtual void verify_setup() {}

  /// Starts the measured window.
  virtual void begin() = 0;

  /// Runs op `i` and returns its wall seconds (output checks excluded).
  /// `trace` is set for traced ops.
  virtual double op(size_t i, Trace* trace) = 0;

  /// Called once, right after op window_ops() - 1.
  virtual void close_window() = 0;

  /// After the last op: final output checks, then every metric this
  /// workload defines (modeled and virtual ones from the window, wall
  /// ones from the traced ops in `trace`). `traced` also runs the
  /// workload's own layer probes.
  virtual void finish(MetricSet& out, const Trace& trace, bool traced) = 0;

  /// Buffer size the crypto kernel probes use, typical of this workload.
  [[nodiscard]] virtual size_t kernel_bytes() const = 0;

  [[nodiscard]] uint64_t attempted() const { return attempted_; }
  [[nodiscard]] uint64_t failed() const { return failed_; }
  [[nodiscard]] uint64_t checksum() const { return checksum_; }

 protected:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checksum_ = kFnvBasis;
};

struct WorkloadInfo {
  std::string_view name;
  std::string_view why;
  std::unique_ptr<Workload> (*make)(uint64_t seed);
};

/// Every workload, with its reason for existing.
const std::vector<WorkloadInfo>& workloads();

}  // namespace perfbench
