// tenet_perfbench: the repository's end-to-end benchmark, one workload per
// run.
//
//   tenet_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Sets up each of the workload's deployments in turn and measures it over
// the workload's fixed window of ops; the last one then runs on until
// --seconds have passed. Every end-to-end metric comes from the windows, so
// the work measured does not depend on how fast the program runs. The
// window's wall time sums, op by op, the fastest of the deployments' wall
// times for that op, and ops_per_wall_s is the window's ops over it.
// Interference from other tenants of a shared machine only ever adds time,
// and it comes and goes over seconds to minutes; the per-op minimum keeps
// what the op itself costs. (Measured on a 4-core VM, 8 runs each: spread
// between runs 0.04-0.06 of the median, against 0.08-0.18 for the per-op
// median.) The modeled and virtual metrics and the output
// checksum repeat exactly for a seed: they must agree between deployments,
// or the run fails. setup_s is the median over the deployments and, where
// those are fewer than kMinSetups or take less than kSetupSeconds, further
// set-ups (at most kMaxSetups in all). Ops after the last window only add
// per-layer samples.
//
// With --trace 1, every other op is traced, odd ones in one deployment and
// even ones in the next: each call the op makes into a layer's public
// functions is timed on its own. Per-layer wall numbers come from the
// traced ops, trace.overhead_pct compares each window position's traced and
// untraced wall times, ops_per_wall_s uses the untraced ones only, and the
// crypto kernels are timed directly on the workload's sizes.
//
// Prints the run manifest and one line per metric (name, clock, unit,
// value, base), then one JSON object as the last line. Exits 1 if any
// output check failed.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/bignum_ifma.h"
#include "crypto/dh.h"
#include "crypto/multibuf.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kSetupSeconds = 2.0;
/// Metrics every correct run reads as 0, whatever the workload.
constexpr std::array<std::string_view, 3> kMustBeZero = {
    "netsim.dropped", "routing.tables_mismatched", "mbox.opaque_forwarded"};

struct Args {
  std::string workload;
  uint64_t seed = 2015;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tenet_perfbench: %s\nusage: tenet_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1>\n"
               "workloads:",
               why);
  for (const WorkloadInfo& w : workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::string_view(v) == "1";
    } else {
      usage("unknown argument");
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Pins glibc's mmap and trim thresholds. Left dynamic, the mmap threshold
/// follows the sizes freed so far, which moves the heap's peak (and with it
/// peak_rss_mb) by megabytes with the order of allocations.
std::string pin_malloc_thresholds() {
#ifdef __GLIBC__
  constexpr int kThreshold = 128 * 1024;
  if (mallopt(M_MMAP_THRESHOLD, kThreshold) == 1 &&
      mallopt(M_TRIM_THRESHOLD, kThreshold) == 1) {
    return "glibc, mmap and trim thresholds pinned at 128 KiB";
  }
#endif
  return "default";
}

/// Build and machine facts that change wall numbers, including the crypto
/// backends the runtime dispatch actually selected on this CPU.
std::vector<std::pair<std::string, std::string>> manifest(
    const std::string& malloc_setting) {
  namespace crypto = tenet::crypto;
  const bool batched_aesni = crypto::mb::aesni_available() &&
                             crypto::mb::backend() == crypto::mb::Backend::kBatched;
  return {
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", PERFBENCH_COMPILER},
      {"tenet_telemetry", PERFBENCH_TELEMETRY},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", cpu_model()},
      {"malloc", malloc_setting},
      {"aes_batched", batched_aesni ? "aes-ni" : "scalar"},
      {"sha256", crypto::sha256_kernel::accelerated() ? "sha-ni" : "portable"},
      {"bignum", crypto::ifma::available() ? "avx512-ifma" : "scalar"},
  };
}

/// Times the crypto kernels directly on `bytes`-sized buffers: AES-CTR and
/// SHA-256 per 16/64-byte block, and one 1024-bit fixed-base modexp.
void add_kernel_probes(MetricSet& m, size_t bytes, uint64_t seed) {
  namespace crypto = tenet::crypto;
  Rng rng(seed ^ 0x6b65726eull);
  std::vector<uint8_t> buf(bytes);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.next());
  crypto::AesKey128 key;
  for (uint8_t& b : key) b = static_cast<uint8_t>(rng.next());
  const crypto::Aes128 aes(key);
  constexpr int kReps = 15;

  const double aes_blocks = static_cast<double>((bytes + 15) / 16);
  const int aes_calls = std::max<int>(1, static_cast<int>(8192 / aes_blocks));
  std::vector<double> aes_ns;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = SteadyClock::now();
    for (int c = 0; c < aes_calls; ++c) {
      aes.ctr_xor(rng.next(), 0, buf.data(), buf.size());
    }
    aes_ns.push_back(seconds_since(t0) * 1e9 / (aes_calls * aes_blocks));
  }
  m.add("crypto.aes_ns_per_block", Clock::kWall, "ns", median(aes_ns),
        aes_ns.size());

  // Padded message: bytes + 0x80 + 8-byte length, rounded up to 64.
  const double sha_blocks = static_cast<double>((bytes + 9 + 63) / 64);
  const int sha_calls = std::max<int>(1, static_cast<int>(2048 / sha_blocks));
  std::vector<double> sha_ns;
  uint8_t sink = 0;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = SteadyClock::now();
    for (int c = 0; c < sha_calls; ++c) {
      buf[0] ^= sink;
      sink = crypto::Sha256::hash(buf)[0];
    }
    sha_ns.push_back(seconds_since(t0) * 1e9 / (sha_calls * sha_blocks));
  }
  m.add("crypto.sha256_ns_per_block", Clock::kWall, "ns", median(sha_ns),
        sha_ns.size());

  const crypto::DhGroup& group = crypto::DhGroup::oakley_group2();
  crypto::Drbg drbg = crypto::Drbg::from_label(seed, "perfbench.modexp");
  std::vector<double> modexp_us;
  for (int r = 0; r < kReps; ++r) {
    const crypto::BigInt x =
        crypto::BigInt::random_range(drbg, crypto::BigInt(2), group.q());
    const auto t0 = SteadyClock::now();
    const crypto::BigInt y = group.power(x);
    modexp_us.push_back(seconds_since(t0) * 1e6);
    sink ^= static_cast<uint8_t>(y.bit_length());
  }
  m.add("crypto.modexp_us", Clock::kWall, "us", median(modexp_us),
        modexp_us.size());
  if (sink == 0xff) std::printf("# probe sink %u\n", sink);
}

/// Whether op `i` of deployment `d` is traced: every other op, alternating
/// between deployments so each window position is measured both ways.
bool traced(const Args& args, size_t d, size_t i) {
  return args.trace && (i + d) % 2 == 1;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

int run(const Args& args) {
  const std::string malloc_setting = pin_malloc_thresholds();
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : workloads()) {
    if (w.name == args.workload) info = &w;
  }
  if (info == nullptr) usage("unknown workload");

  std::printf("# tenet_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# why: %.*s\n", static_cast<int>(info->why.size()),
              info->why.data());
  const auto facts = manifest(malloc_setting);
  for (const auto& [k, v] : facts) {
    std::printf("manifest %-16s %s\n", k.c_str(), v.c_str());
  }
  std::fflush(stdout);

  // Deployments in turn: set up (timed), measured over the window, checked
  // against the first. The reported metrics are the last one's.
  std::vector<double> setup_s;
  Trace trace;
  // Wall seconds of each op of each deployment's window.
  std::vector<std::vector<double>> window_walls;
  size_t ops_after = 0;
  double rss_mb = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> checksums;
  size_t kernel_bytes = 0;
  MetricSet first;  // what the first deployment's window gave
  MetricSet m;
  bool deterministic = true;
  size_t deployments = 1;
  size_t window = 0;
  SteadyClock::time_point start;
  for (size_t d = 0; d < deployments; ++d) {
    const auto t0 = SteadyClock::now();
    const std::unique_ptr<Workload> w = info->make(args.seed);
    setup_s.push_back(seconds_since(t0));
    if (d == 0) {
      deployments = w->deployments();
      window = w->window_ops();
      if (deployments == 0 || window == 0) {
        throw std::logic_error("need deployments and a window");
      }
      start = SteadyClock::now();
    }
    const bool last = d + 1 == deployments;
    w->verify_setup();
    w->begin();
    std::vector<double>& walls = window_walls.emplace_back();
    for (size_t i = 0;
         i < window || (last && seconds_since(start) < args.seconds); ++i) {
      const double op_wall =
          w->op(i, traced(args, d, i) ? &trace : nullptr);
      if (i >= window) {
        ++ops_after;
        continue;
      }
      walls.push_back(op_wall);
      if (i + 1 == window) {
        w->close_window();
        if (d == 0) rss_mb = peak_rss_mb();
      }
    }
    MetricSet got;
    w->finish(got, trace, args.trace && last);
    if (d == 0) first = got;
    for (const Metric& x : first.all()) {
      const Metric* y = got.find(x.name);
      if (x.clock != Clock::kWall && (y == nullptr || y->value != x.value)) {
        std::printf("# check failed: %s differs between deployments\n",
                    x.name.c_str());
        deterministic = false;
      }
    }
    if (last) m = std::move(got);
    attempted += w->attempted();
    failed += w->failed();
    checksums.push_back(w->checksum());
    kernel_bytes = w->kernel_bytes();
  }
  // More set-ups, not measured, until there are enough to take a median.
  double setup_total = 0;
  for (const double x : setup_s) setup_total += x;
  while (setup_s.size() < kMinSetups ||
         (setup_total < kSetupSeconds && setup_s.size() < kMaxSetups)) {
    const auto t0 = SteadyClock::now();
    const std::unique_ptr<Workload> w = info->make(args.seed);
    setup_s.push_back(seconds_since(t0));  // before `w` is torn down
    setup_total += setup_s.back();
  }

  m.add_ratio("ops_per_wall_s", Clock::kWall, "1/s",
              window_rate(window_walls, [&](size_t d, size_t i) {
                return traced(args, d, i);
              }));
  // With tracing, the mean traced and untraced wall time at each position.
  double traced_sum = 0;
  double untraced_sum = 0;
  for (size_t i = 0; args.trace && i < window; ++i) {
    std::vector<double> at[2];  // untraced, traced
    for (size_t d = 0; d < deployments; ++d) {
      at[traced(args, d, i)].push_back(window_walls[d][i]);
    }
    if (!at[0].empty() && !at[1].empty()) {
      traced_sum += mean(at[1]);
      untraced_sum += mean(at[0]);
    }
  }
  std::printf("# window wall s by deployment:");
  for (const std::vector<double>& walls : window_walls) {
    double sum = 0;
    for (const double x : walls) sum += x;
    std::printf(" %.6g", sum);
  }
  std::printf("\n# %zu ops after the last window\n", ops_after);
  m.add("setup_s", Clock::kWall, "s", median(setup_s), setup_s.size());
  m.add("peak_rss_mb", Clock::kWall, "MB", rss_mb);
  m.add_ratio("fail_ratio", Clock::kVirtual, "ratio",
              Ratio{static_cast<double>(failed),
                    static_cast<double>(attempted), "ops attempted"});
  if (args.trace) {
    add_kernel_probes(m, kernel_bytes, args.seed);
    m.add("trace.overhead_pct", Clock::kWall, "%",
          (traced_sum / untraced_sum - 1.0) * 100.0, window);
  }

  bool correct = failed == 0 && deterministic;
  if (std::adjacent_find(checksums.begin(), checksums.end(),
                         std::not_equal_to<>()) != checksums.end()) {
    std::printf("# check failed: output checksum differs between deployments\n");
    correct = false;
  }
  for (const std::string_view name : kMustBeZero) {
    const Metric* x = m.find(name);
    if (x != nullptr && x->value != 0) {
      std::printf("# check failed: %.*s is not 0\n",
                  static_cast<int>(name.size()), name.data());
      correct = false;
    }
  }
  for (const Metric& x : m.all()) {
    std::printf("metric %-36s %-7s %-12s %.10g", x.name.c_str(),
                to_string(x.clock), x.unit.c_str(), x.value);
    if (x.ratio.has_value()) {
      std::printf("  (%.10g / %.10g %s)", x.ratio->num, x.ratio->den,
                  x.ratio->base.c_str());
    }
    if (x.samples > 0) std::printf("  [n=%zu]", x.samples);
    std::printf("\n");
  }
  std::printf("checksum %016llx\n",
              static_cast<unsigned long long>(checksums.back()));

  std::string json = "{\"workload\": \"" + json_escape(args.workload) +
                     "\", \"seed\": " + std::to_string(args.seed) +
                     ", \"correct\": " + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"checksum\": \"" + std::to_string(checksums.back()) +
                     "\", \"manifest\": {";
  for (size_t i = 0; i < facts.size(); ++i) {
    json += (i ? ", \"" : "\"") + facts[i].first + "\": \"" +
            json_escape(facts[i].second) + "\"";
  }
  json += "}, \"metrics\": {";
  char num[64];
  for (size_t i = 0; i < m.all().size(); ++i) {
    const Metric& x = m.all()[i];
    std::snprintf(num, sizeof(num), "%.17g", x.value);
    json += (i ? ", \"" : "\"") + x.name + "\": {\"value\": " + num +
            ", \"unit\": \"" + x.unit + "\", \"clock\": \"" +
            to_string(x.clock) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "tenet_perfbench: %s\n", e.what());
    return 1;
  }
}
