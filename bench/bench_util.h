// Shared formatting helpers for the table/figure reproduction benches.
//
// Every bench prints (a) the measured values from this reproduction and
// (b) the paper's reported numbers next to them where applicable, so the
// shape comparison recorded in EXPERIMENTS.md can be re-derived from any
// run. Absolute values are NOT expected to match (the paper measured a
// QEMU-based emulator on 2015 hardware; we measure a calibrated
// library-level model — see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace tenet::bench {

/// The common bench telemetry flag. Construct first thing in main():
///
///   bench_xyz [--export DIR]
///
/// --export enables telemetry for the run and writes one export bundle to
/// DIR (telemetry::write_bundle; read it with tools/analyze.py DIR): at
/// scope exit, or earlier through write() when the bench has a scraper or
/// health model to add. Without the flag this is inert and the bench
/// measures with telemetry disabled.
class Telemetry {
 public:
  Telemetry(int argc, char** argv) {
    bench_ = argv[0];
    bench_ = bench_.substr(bench_.find_last_of('/') + 1);
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--export" && i + 1 < argc) {
        dir_ = argv[++i];
      }
    }
    if (active()) telemetry::set_enabled(true);
  }

  ~Telemetry() {
    if (active() && !written_) (void)write();
  }

  [[nodiscard]] bool active() const { return !dir_.empty(); }

  /// Writes the bundle now (once per run); false on an I/O error.
  bool write(const telemetry::Scraper* scraper = nullptr,
             const telemetry::HealthModel* health = nullptr) {
    written_ = true;
    const bool ok = telemetry::write_bundle(dir_, bench_, scraper, health);
    std::fprintf(stderr, "%s bundle %s\n", ok ? "wrote" : "FAILED to write",
                 dir_.c_str());
    return ok;
  }

 private:
  std::string_view bench_;
  std::string dir_;
  bool written_ = false;
};

inline void title(const char* text) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", text);
  std::printf("================================================================\n");
}

inline void section(const char* text) { std::printf("\n--- %s ---\n", text); }

/// "1234567" -> "1.23M" style human counts.
inline std::string human(double v) {
  char buf[64];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fK", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

inline double pct_increase(double with, double without) {
  return without == 0 ? 0 : 100.0 * (with - without) / without;
}

/// A bench's own gate. Three kinds of rule, each kept next to the code
/// that computes the value:
///   - `pin`: a deterministic value (simulator or instruction-model count,
///     checksum, equality bit) must equal the value recorded here. Reals
///     compare as the bench prints them, at a fixed number of decimals.
///   - `at_least`/`at_most`: a value must clear a threshold (a modeled
///     floor or cap that holds whatever the exact figure).
///   - `host_at_least`/`host_at_most`: the same for a figure the host
///     measures (a ratio of two wall timings taken in one run, a peak RSS).
///     Checked only in optimized (NDEBUG) builds; debug and sanitizer
///     builds measure something else.
/// Every miss is named on stderr; `exit_code()` is 1 if any rule missed.
class Gate {
 public:
  explicit Gate(const char* bench) : bench_(bench) {}

  template <typename T>
    requires std::is_integral_v<T>
  void pin(const char* name, T got, uint64_t want) {
    if (static_cast<uint64_t>(got) == want) return;
    miss(name, std::to_string(static_cast<uint64_t>(got)), "pinned",
         std::to_string(want));
  }

  void pin(const char* name, double got, double want, int decimals) {
    const std::string g = fixed(got, decimals);
    const std::string w = fixed(want, decimals);
    if (g != w) miss(name, g, "pinned", w);
  }

  void at_least(const char* name, double got, double floor) {
    if (!(got >= floor)) miss(name, fixed(got, 2), "floor", fixed(floor, 2));
  }
  void at_most(const char* name, double got, double cap) {
    if (!(got <= cap)) miss(name, fixed(got, 2), "cap", fixed(cap, 2));
  }
  void host_at_least(const char* name, double got, double floor) {
    if (kHostRules) at_least(name, got, floor);
  }
  void host_at_most(const char* name, double got, double cap) {
    if (kHostRules) at_most(name, got, cap);
  }

  [[nodiscard]] int exit_code() const { return misses_ == 0 ? 0 : 1; }

 private:
#ifdef NDEBUG
  static constexpr bool kHostRules = true;
#else
  static constexpr bool kHostRules = false;
#endif

  static std::string fixed(double v, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
  }

  void miss(const char* name, const std::string& got, const char* rule,
            const std::string& want) {
    ++misses_;
    std::fprintf(stderr, "%s: %s = %s, %s %s\n", bench_, name, got.c_str(),
                 rule, want.c_str());
  }

  const char* bench_;
  int misses_ = 0;
};

}  // namespace tenet::bench
