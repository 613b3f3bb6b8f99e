// The benchmark's own arithmetic: metric records, the percentile rule,
// ratios with their base, and the split of modeled cost into layers.
// Header-only so perfbench_selftest checks exactly what the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sgx/cost_model.h"

namespace perfbench {

/// Which clock a number is read on.
///  * wall:    how fast the emulator runs on this machine (steady_clock).
///  * modeled: the paper's currency, 10k x SGX(U) + normal / 1.8, and the
///             instruction/work counts it is made of. Deterministic.
///  * virtual: the simulator clock, and counts of simulated outcomes
///             (events, messages, cache hits, failures). Deterministic.
enum class Clock { kWall, kModeled, kVirtual };

inline const char* to_string(Clock c) {
  switch (c) {
    case Clock::kWall: return "wall";
    case Clock::kModeled: return "modeled";
    case Clock::kVirtual: return "virtual";
  }
  return "?";
}

/// Metric names are used as JSON keys and shell-friendly identifiers.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// A quotient together with what it was computed from, so every printed
/// ratio can be re-derived: value = num / den, den counted in `base`.
struct Ratio {
  double num = 0;
  double den = 0;
  std::string base;  // what `den` counts, e.g. "ops" or "finds"

  /// No value without a base: a ratio over nothing is left out, not 0.
  [[nodiscard]] std::optional<double> value() const {
    if (!(den > 0)) return std::nullopt;
    return num / den;
  }
};

struct Metric {
  std::string name;
  Clock clock = Clock::kWall;
  std::string unit;
  double value = 0;
  std::optional<Ratio> ratio;  // set for every value that is a quotient
  size_t samples = 0;          // for percentiles: how many values it ranks
};

class MetricSet {
 public:
  /// A plain value. Throws on a malformed name, a duplicate, or a wall
  /// number labelled as cycles (cycles are only ever modeled).
  void add(std::string name, Clock clock, std::string unit, double value,
           size_t samples = 0) {
    check(name, clock, unit);
    metrics_.push_back(Metric{std::move(name), clock, std::move(unit), value,
                              std::nullopt, samples});
  }

  /// A quotient. Left out (returns false) when its base is empty. Throws
  /// when the base is not named.
  bool add_ratio(std::string name, Clock clock, std::string unit, Ratio r) {
    if (r.base.empty()) {
      throw std::invalid_argument("ratio without a named base: " + name);
    }
    const std::optional<double> v = r.value();
    if (!v.has_value()) return false;
    check(name, clock, unit);
    metrics_.push_back(Metric{std::move(name), clock, std::move(unit), *v,
                              std::move(r), 0});
    return true;
  }

  /// `num` per op, with the op count as base.
  bool add_per_op(std::string name, Clock clock, std::string unit, double num,
                  double ops) {
    return add_ratio(std::move(name), clock, std::move(unit),
                     Ratio{num, ops, "ops"});
  }

  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }
  [[nodiscard]] const Metric* find(std::string_view name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

 private:
  void check(const std::string& name, Clock clock, const std::string& unit) {
    if (!valid_metric_name(name)) {
      throw std::invalid_argument("bad metric name: " + name);
    }
    if (find(name) != nullptr) {
      throw std::invalid_argument("duplicate metric: " + name);
    }
    if (clock == Clock::kWall && (name.find("cycles") != std::string::npos ||
                                  unit.find("cycles") != std::string::npos)) {
      throw std::invalid_argument("wall metric labelled as cycles: " + name);
    }
  }

  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Percentiles (nearest rank).

/// 1-based nearest-rank position of percentile p (0 < p <= 100) among n
/// samples: ceil(p/100 * n), guarded against rounding (99.9% of 10000 is
/// 9990, not 9991).
inline size_t nearest_rank(size_t n, double p) {
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(rank < 1 ? 1 : static_cast<size_t>(rank), 1,
                            std::max<size_t>(n, 1));
}

/// Value at percentile p of `v`, by nearest rank. Sorts `v`.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of nothing");
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

/// Samples strictly above the nearest-rank position of percentile p.
inline size_t samples_beyond(size_t n, double p) {
  return n - std::min(n, nearest_rank(n, p));
}

/// The tail percentile a sample of `n` can support: the highest of 99.9,
/// 99 and 90 that leaves at least ten samples beyond it; none below that.
inline std::optional<double> tail_percentile(size_t n) {
  for (const double p : {99.9, 99.0, 90.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return std::nullopt;
}

inline double median(std::vector<double> v) { return percentile(v, 50); }

// ---------------------------------------------------------------------------
// Throughput of a fixed window of ops.

/// ops_per_wall_s of one window of ops run on several deployments:
/// `walls[d][i]` is op i's wall seconds on deployment d, and samples for
/// which `skip(d, i)` holds (traced ops) are left out. Each op counts at its
/// fastest remaining sample, because interference from other tenants of a
/// shared machine only ever adds time. An op with no sample left is not
/// counted.
template <class Skip>
Ratio window_rate(const std::vector<std::vector<double>>& walls, Skip skip) {
  Ratio r{0, 0, "s of window wall, per op the fastest of " +
                    std::to_string(walls.size()) + " deployments"};
  const size_t ops = walls.empty() ? 0 : walls.front().size();
  for (size_t i = 0; i < ops; ++i) {
    std::optional<double> fastest;
    for (size_t d = 0; d < walls.size(); ++d) {
      if (skip(d, i)) continue;
      fastest = std::min(fastest.value_or(walls[d][i]), walls[d][i]);
    }
    if (!fastest.has_value()) continue;
    r.num += 1;
    r.den += *fastest;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Modeled cost, split by layer.

/// Instruction-level counters of one or more cost models (a delta or a sum).
struct Counts {
  uint64_t sgx_user = 0;
  uint64_t normal = 0;  // every normal instruction, metered or direct
  uint64_t transitions = 0;
  uint64_t switchless_hits = 0;
  uint64_t switchless_fallbacks = 0;
  uint64_t ereport = 0;
  uint64_t egetkey = 0;
  tenet::crypto::WorkCounters work;

  Counts& operator+=(const Counts& o) {
    sgx_user += o.sgx_user;
    normal += o.normal;
    transitions += o.transitions;
    switchless_hits += o.switchless_hits;
    switchless_fallbacks += o.switchless_fallbacks;
    ereport += o.ereport;
    egetkey += o.egetkey;
    work += o.work;
    return *this;
  }
};

/// Public counters of one cost model (non-const: work() has no const
/// overload; nothing is modified).
inline Counts read_counts(tenet::sgx::CostModel& m) {
  using tenet::sgx::UserInstr;
  Counts c;
  c.sgx_user = m.sgx_user_instructions();
  c.normal = m.normal_instructions();
  c.transitions = m.transitions();
  c.switchless_hits = m.switchless_hits();
  c.switchless_fallbacks = m.switchless_fallbacks();
  c.ereport = m.user_count(UserInstr::kEReport);
  c.egetkey = m.user_count(UserInstr::kEGetKey);
  c.work = m.work();
  return c;
}

/// `after - before`, field by field (counters only grow).
inline Counts minus(const Counts& after, const Counts& before) {
  Counts d;
  d.sgx_user = after.sgx_user - before.sgx_user;
  d.normal = after.normal - before.normal;
  d.transitions = after.transitions - before.transitions;
  d.switchless_hits = after.switchless_hits - before.switchless_hits;
  d.switchless_fallbacks =
      after.switchless_fallbacks - before.switchless_fallbacks;
  d.ereport = after.ereport - before.ereport;
  d.egetkey = after.egetkey - before.egetkey;
  const auto& a = after.work;
  const auto& b = before.work;
  d.work.sha256_blocks = a.sha256_blocks - b.sha256_blocks;
  d.work.aes_blocks = a.aes_blocks - b.aes_blocks;
  d.work.aes_key_schedules = a.aes_key_schedules - b.aes_key_schedules;
  d.work.chacha_blocks = a.chacha_blocks - b.chacha_blocks;
  d.work.limb_muladds = a.limb_muladds - b.limb_muladds;
  d.work.bytes_moved = a.bytes_moved - b.bytes_moved;
  d.work.alu_ops = a.alu_ops - b.alu_ops;
  return d;
}

/// Normal instructions split by where they were charged. The three parts
/// add up to Counts::normal exactly (integers).
struct NormalSplit {
  uint64_t crypto = 0;    // metered primitive work (blocks, limbs, bytes)
  uint64_t app = 0;       // metered application ALU steps
  uint64_t boundary = 0;  // charged directly by the SGX runtime: copies,
                          // context switches, ocall dispatch, ring ops,
                          // page setup
};

inline NormalSplit split_normal(const Counts& c,
                                const tenet::sgx::CostConstants& k) {
  const auto& w = c.work;
  NormalSplit s;
  s.crypto = w.sha256_blocks * k.per_sha256_block +
             w.aes_blocks * k.per_aes_block +
             w.aes_key_schedules * k.per_aes_key_schedule +
             w.chacha_blocks * k.per_chacha_block +
             w.limb_muladds * k.per_limb_muladd +
             w.bytes_moved * k.per_byte_moved;
  s.app = w.alu_ops * k.per_alu_op;
  if (s.crypto + s.app > c.normal) {
    throw std::logic_error("metered work exceeds normal instructions");
  }
  s.boundary = c.normal - s.crypto - s.app;
  return s;
}

/// Modeled cycles by layer. `total()` is their sum, so the parts add up to
/// the reported total exactly; it equals the paper formula
/// 10k x SGX(U) + normal / ipc up to floating-point rounding.
struct ModeledSplit {
  double sgx = 0;
  double crypto = 0;
  double app = 0;
  double boundary = 0;
  [[nodiscard]] double total() const { return sgx + crypto + app + boundary; }
};

inline ModeledSplit split_modeled(const Counts& c,
                                  const tenet::sgx::CostConstants& k) {
  const NormalSplit n = split_normal(c, k);
  ModeledSplit s;
  s.sgx = static_cast<double>(c.sgx_user * k.cycles_per_sgx_instr);
  s.crypto = static_cast<double>(n.crypto) / k.ipc;
  s.app = static_cast<double>(n.app) / k.ipc;
  s.boundary = static_cast<double>(n.boundary) / k.ipc;
  return s;
}

}  // namespace perfbench
