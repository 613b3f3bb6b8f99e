// Million-session data plane benchmark (PR 7, DESIGN.md §13).
//
// Three measurements:
//
//  * "record path duel": the same record stream sealed twice — once the
//    legacy way (per-record seal() allocating a fresh record, then copied
//    into the framed ocall request; portable AES) and once the zero-copy
//    way (per-record SecureChannel::seal_into writing straight into
//    preallocated frame tails; AES-NI). Both streams must be
//    byte-identical — the speedup is only meaningful if the fast path is
//    the same protocol — and the gated `speedup_floor_met` bit asserts the
//    >=3x floor.
//
//  * "open path duel": the receive-side mirror — the same sealed stream
//    opened twice with the per-record open_in_place loop, once on the
//    portable AES and once on AES-NI. Every record must be accepted on
//    both and the decrypted arenas must be byte-identical
//    (`open_mismatch_records`, `open_rejected_records` gate at 0).
//
//  * "session sweep": records/sec + cycles/byte as the live session count
//    grows 1 -> 10^6 (--large). Sessions live in a SessionCache whose hot
//    tier is far smaller than the session count, and each session's cold
//    state is pinned to an emulated EPC page (16 sessions/page), so the
//    sweep crosses two knees: the hot-tier knee (resume + key re-expansion
//    per record) and the EPC-capacity knee (an EWB and an ELDU per
//    resume that finds its page spilled, once pages exceed the 32k-page
//    EPC; wall time only, as paging charges no modeled cost).
//
// Each duel size and each sweep point runs under its own trace root, so
// an `--export` bundle attributes every span to one of them.
//
// Output: human tables by default; `--json` prints one flat JSON object.
// The bench exits 1 naming any gated value that misses: both duels must
// be byte-identical at every size, the 1 KB seal duel must clear the >=3x
// floor (an in-run wall ratio), and at the default size the stream
// checksums and the top sweep point's cache/EPC counts are pinned. Raw
// throughput is informational. Some JSON keys keep the names of the
// batched record API this bench used to measure: `batch_mismatch_records`
// counts zero-copy records that differ from the legacy ones, and the
// `batched_*` rates are the zero-copy seal and AES-NI open arms. `--large`
// grows the sweep for the nightly dataplane-large leg.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "crypto/aes.h"
#include "crypto/rng.h"
#include "netsim/session_cache.h"
#include "sgx/epc.h"
#include "telemetry/trace.h"

using namespace tenet;
using Clock = std::chrono::steady_clock;

namespace {

constexpr uint64_t kSeed = 2015;
constexpr double kNominalGhz = 2.1;  // reference machine (Xeon @ 2.10 GHz)
constexpr double kDuelSpeedupFloor = 3.0;

/// Current resident set in MB (Linux /proc; 0 if unavailable).
double vm_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double mb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

uint64_t fold(uint64_t h, uint64_t v) {
  return (h ^ v) * 1099511628211ull;  // FNV-1a step
}

uint64_t fold_bytes(uint64_t h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) h = fold(h, p[i]);
  return h;
}

crypto::Bytes channel_key() {
  return crypto::Drbg::from_label(kSeed, "bench.dp.key")
      .bytes(netsim::SecureChannel::kKeySize);
}

// ---------------------------------------------------------------------
// Record-path duel: legacy per-record seal+copy vs zero-copy seal_into.

struct DuelResult {
  double legacy_seconds = 0;
  double zero_copy_seconds = 0;
  size_t records = 0;
  size_t record_bytes = 0;
  size_t mismatched_records = 0;
  uint64_t checksum = 0;
  [[nodiscard]] double legacy_rps() const {
    return legacy_seconds > 0
               ? static_cast<double>(records) / legacy_seconds
               : 0;
  }
  [[nodiscard]] double zero_copy_rps() const {
    return zero_copy_seconds > 0
               ? static_cast<double>(records) / zero_copy_seconds
               : 0;
  }
  [[nodiscard]] double speedup() const {
    return legacy_rps() > 0 ? zero_copy_rps() / legacy_rps() : 0;
  }
};

/// Runs `body` with the AES backend forced to `backend`; returns its wall
/// seconds.
template <typename F>
double timed_on(crypto::mb::Backend backend, F&& body) {
  const auto prev = crypto::mb::set_backend(backend);
  const auto t0 = Clock::now();
  body();
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  crypto::mb::set_backend(prev);
  return s;
}

DuelResult run_duel(size_t n_records, size_t record_bytes) {
  TENET_TRACE_ROOT("dataplane", "record_duel");
  const crypto::Bytes key = channel_key();
  const crypto::Bytes plain =
      crypto::Drbg::from_label(kSeed, "bench.dp.payload").bytes(record_bytes);
  const size_t sealed = netsim::SecureChannel::sealed_size(record_bytes);

  DuelResult res;
  res.records = n_records;
  res.record_bytes = record_bytes;

  // One contiguous frame arena per path stands in for the framed ocall
  // requests (PR 4 ring slots / PR 6 pooled payloads).
  std::vector<uint8_t> legacy_frames(n_records * sealed);
  std::vector<uint8_t> zero_copy_frames(n_records * sealed);

  // Best-of-two timed runs per path (fresh channel each run so sequence
  // numbers — and therefore bytes — are identical across runs and paths).
  const auto time_legacy = [&] {
    netsim::SecureChannel chan(key, /*initiator=*/true);
    return timed_on(crypto::mb::Backend::kScalar, [&] {
      for (size_t i = 0; i < n_records; ++i) {
        // Legacy shape: seal() allocates the record, the framing layer
        // then copies it into the request buffer.
        const crypto::Bytes rec = chan.seal(plain);
        std::memcpy(legacy_frames.data() + i * sealed, rec.data(),
                    rec.size());
      }
    });
  };
  const auto time_zero_copy = [&] {
    netsim::SecureChannel chan(key, /*initiator=*/true);
    return timed_on(crypto::mb::Backend::kBatched, [&] {
      for (size_t i = 0; i < n_records; ++i) {
        chan.seal_into(plain,
                       std::span<uint8_t>(zero_copy_frames.data() + i * sealed,
                                          sealed));
      }
    });
  };

  res.legacy_seconds = std::min(time_legacy(), time_legacy());
  res.zero_copy_seconds = std::min(time_zero_copy(), time_zero_copy());

  for (size_t i = 0; i < n_records; ++i) {
    if (std::memcmp(legacy_frames.data() + i * sealed,
                    zero_copy_frames.data() + i * sealed, sealed) != 0) {
      ++res.mismatched_records;
    }
  }
  res.checksum =
      fold_bytes(0, zero_copy_frames.data(), zero_copy_frames.size());
  return res;
}

// ---------------------------------------------------------------------
// Receive-side duel: the open_in_place loop on the portable AES vs on
// AES-NI over the same sealed stream. Both must accept every record and
// leave identical plaintext bytes (the checksum pins it).

struct OpenDuelResult {
  double portable_seconds = 0;
  double aesni_seconds = 0;
  size_t records = 0;
  size_t record_bytes = 0;
  size_t mismatched_records = 0;  // plaintext disagreement
  size_t rejected_records = 0;    // any path refusing a genuine record
  uint64_t checksum = 0;
  [[nodiscard]] double portable_rps() const {
    return portable_seconds > 0
               ? static_cast<double>(records) / portable_seconds
               : 0;
  }
  [[nodiscard]] double aesni_rps() const {
    return aesni_seconds > 0
               ? static_cast<double>(records) / aesni_seconds
               : 0;
  }
  [[nodiscard]] double speedup() const {
    return portable_rps() > 0 ? aesni_rps() / portable_rps() : 0;
  }
};

OpenDuelResult run_open_duel(size_t n_records, size_t record_bytes) {
  TENET_TRACE_ROOT("dataplane", "open_duel");
  const crypto::Bytes key = channel_key();
  const crypto::Bytes plain =
      crypto::Drbg::from_label(kSeed, "bench.dp.payload").bytes(record_bytes);
  const size_t sealed = netsim::SecureChannel::sealed_size(record_bytes);

  OpenDuelResult res;
  res.records = n_records;
  res.record_bytes = record_bytes;

  // One sealed stream, replayed into each receiver from its own arena so
  // in-place decryption cannot leak state across the timed runs.
  std::vector<uint8_t> stream(n_records * sealed);
  {
    netsim::SecureChannel sender(key, /*initiator=*/true);
    for (size_t i = 0; i < n_records; ++i) {
      sender.seal_into(plain,
                       std::span<uint8_t>(stream.data() + i * sealed, sealed));
    }
  }

  // Opens the whole stream from `arena` with a fresh receiver.
  const auto time_open = [&](crypto::mb::Backend backend,
                             std::vector<uint8_t>& arena) {
    arena = stream;
    netsim::SecureChannel chan(key, /*initiator=*/false);
    return timed_on(backend, [&] {
      for (size_t i = 0; i < n_records; ++i) {
        const auto len = chan.open_in_place(
            std::span<uint8_t>(arena.data() + i * sealed, sealed));
        if (!len.has_value()) ++res.rejected_records;
      }
    });
  };

  // Single timed run per path (a repeat run would replay the stream into
  // the same channel and hit the replay window); rejected_records sums
  // over both paths and must be zero on a genuine stream.
  std::vector<uint8_t> portable_arena;
  std::vector<uint8_t> aesni_arena;
  res.portable_seconds =
      time_open(crypto::mb::Backend::kScalar, portable_arena);
  res.aesni_seconds = time_open(crypto::mb::Backend::kBatched, aesni_arena);

  for (size_t i = 0; i < n_records; ++i) {
    if (std::memcmp(portable_arena.data() + i * sealed,
                    aesni_arena.data() + i * sealed, sealed) != 0) {
      ++res.mismatched_records;
    }
  }
  res.checksum = fold_bytes(0, aesni_arena.data(), aesni_arena.size());
  return res;
}

// ---------------------------------------------------------------------
// Session sweep: throughput vs live session count under a bounded hot
// tier and EPC-resident cold state.

constexpr size_t kSessionsPerEpcPage = 16;  // 256 B of cold state each
constexpr size_t kEpcCapacityPages = 32 * 1024;  // ~128 MB, 2015 hardware
constexpr size_t kHotCapacity = 4096;
constexpr size_t kSweepRecordBytes = 256;

struct SweepPoint {
  size_t sessions = 0;
  size_t records = 0;
  double seconds = 0;
  uint64_t hot_hits = 0;
  uint64_t resumes = 0;
  uint64_t evictions = 0;
  size_t epc_pages = 0;      // pages backing the cold tier
  size_t epc_resident = 0;   // resident after the run (rest spilled)
  uint64_t epc_reloads = 0;  // ELDU reloads during the run (the EPC knee)
  uint64_t checksum = 0;
  double rss_mb = 0;
  [[nodiscard]] double records_per_sec() const {
    return seconds > 0 ? static_cast<double>(records) / seconds : 0;
  }
  [[nodiscard]] double cycles_per_byte() const {
    if (records == 0 || seconds <= 0) return 0;
    const double ns_per_byte =
        seconds * 1e9 /
        static_cast<double>(records * kSweepRecordBytes);
    return ns_per_byte * kNominalGhz;
  }
};

SweepPoint run_sweep_point(size_t n_sessions, size_t n_records) {
  TENET_TRACE_ROOT("dataplane", "sweep_point");
  SweepPoint pt;
  pt.sessions = n_sessions;
  pt.records = n_records;
  pt.epc_pages = (n_sessions + kSessionsPerEpcPage - 1) / kSessionsPerEpcPage;

  crypto::Drbg keys = crypto::Drbg::from_label(kSeed, "bench.dp.sweep");
  const crypto::Bytes mee_key = keys.bytes(32);
  sgx::Epc epc(mee_key, kEpcCapacityPages);
  netsim::SessionCache cache(kHotCapacity);

  // Install every session and pin its cold state to an EPC page (16
  // sessions per page). add_page spills older pages once the EPC is full —
  // the same EWB path enclave heaps take under pressure.
  constexpr sgx::EnclaveId kOwner = 1;
  crypto::Bytes page(sgx::kPageSize, 0);
  for (size_t s = 0; s < n_sessions; ++s) {
    cache.install(s, keys.bytes(netsim::SecureChannel::kKeySize),
                  /*initiator=*/true);
    if (s % kSessionsPerEpcPage == 0) {
      page[0] = static_cast<uint8_t>(s);
      epc.add_page(kOwner, s / kSessionsPerEpcPage, page);
    }
  }

  const crypto::Bytes plain =
      crypto::Drbg::from_label(kSeed, "bench.dp.sweep.payload")
          .bytes(kSweepRecordBytes);
  std::vector<uint8_t> out(
      netsim::SecureChannel::sealed_size(kSweepRecordBytes));

  // Deterministic peer stream (LCG) so hits/misses/evictions — and the
  // sealed bytes — are identical run-to-run and machine-to-machine.
  uint64_t lcg = kSeed;
  const uint64_t base_resumes = cache.stats().resumes;
  const auto t0 = Clock::now();
  for (size_t i = 0; i < n_records; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t peer = (lcg >> 33) % n_sessions;
    const uint64_t resumes_before = cache.stats().resumes;
    netsim::SecureChannel* chan = cache.find(peer);
    if (cache.stats().resumes != resumes_before) {
      // Cold session: its state has to come back through the MEE before
      // the channel can be rebuilt (ELDU reload if the page was spilled).
      (void)epc.read_page(kOwner, peer / kSessionsPerEpcPage);
    }
    chan->seal_into(plain, out);
    pt.checksum = fold_bytes(pt.checksum, out.data(), out.size());
  }
  pt.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  pt.hot_hits = cache.stats().hot_hits;
  pt.resumes = cache.stats().resumes - base_resumes;
  pt.evictions = cache.stats().evictions;
  pt.epc_resident = epc.pages_in_use();
  pt.epc_reloads = epc.reloads();
  pt.rss_mb = vm_rss_mb();
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  tenet::bench::Telemetry telemetry(argc, argv);
  bool json = false;
  bool large = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--json") json = true;
    if (a == "--large") large = true;
  }

  // Workload sizes. The nightly telemetry-capture job traces every event;
  // shrink hard so it stays within budget.
  size_t duel_records = large ? 100'000 : 40'000;
  size_t duel_bytes = 1024;
  std::vector<size_t> sweep_sessions =
      large ? std::vector<size_t>{1, 1'000, 65'536, 262'144, 1'048'576}
            : std::vector<size_t>{1, 1'000, 65'536, 262'144};
  size_t sweep_records = large ? 200'000 : 60'000;
  if (telemetry.active()) {
    duel_records = 4'000;
    sweep_sessions = {1, 1'000};
    sweep_records = 5'000;
  }

  if (!json) {
    bench::title("bench_dataplane — million-session record path (DESIGN.md §13)");
    bench::section("record path duel: legacy seal+copy vs zero-copy seal_into");
    std::printf("%8s %14s %15s %9s %10s\n", "bytes", "legacy rec/s",
                "zero-copy rec/s", "speedup", "identical");
  }

  // The gated duel runs at 1024 B; smaller sizes are printed for shape
  // (the HMAC floor shrinks the AES win as records shrink).
  DuelResult gated;
  for (const size_t bytes :
       json ? std::vector<size_t>{duel_bytes}
            : std::vector<size_t>{64, 256, 1024, 4096}) {
    const DuelResult r =
        run_duel(bytes == duel_bytes ? duel_records : duel_records / 2, bytes);
    if (bytes == duel_bytes) gated = r;
    if (!json) {
      std::printf("%8zu %14s %15s %8.2fx %10s\n", bytes,
                  bench::human(r.legacy_rps()).c_str(),
                  bench::human(r.zero_copy_rps()).c_str(), r.speedup(),
                  r.mismatched_records == 0 ? "yes" : "NO");
    }
  }
  const bool floor_met = gated.speedup() >= kDuelSpeedupFloor;

  // Receive-side mirror of the duel: same stream opened both ways.
  if (!json) {
    bench::section("open path duel: open_in_place, portable AES vs AES-NI");
    std::printf("%8s %14s %14s %9s %10s\n", "bytes", "portable rec/s",
                "AES-NI rec/s", "speedup", "identical");
  }
  OpenDuelResult open_gated;
  for (const size_t bytes :
       json ? std::vector<size_t>{duel_bytes}
            : std::vector<size_t>{64, 256, 1024, 4096}) {
    const OpenDuelResult r = run_open_duel(
        bytes == duel_bytes ? duel_records : duel_records / 2, bytes);
    if (bytes == duel_bytes) open_gated = r;
    if (!json) {
      std::printf("%8zu %14s %14s %8.2fx %10s\n", bytes,
                  bench::human(r.portable_rps()).c_str(),
                  bench::human(r.aesni_rps()).c_str(), r.speedup(),
                  r.mismatched_records == 0 && r.rejected_records == 0
                      ? "yes"
                      : "NO");
    }
  }

  if (!json) {
    bench::section("session sweep: records/sec vs live sessions");
    std::printf("%10s %12s %14s %10s %9s %9s %9s %9s\n", "sessions",
                "records/s", "cycles/byte", "hot hits", "resumes", "EPC pg",
                "reloads", "RSS MB");
  }

  std::vector<SweepPoint> curve;
  for (const size_t n : sweep_sessions) {
    curve.push_back(run_sweep_point(n, sweep_records));
    if (!json) {
      const SweepPoint& p = curve.back();
      std::printf("%10zu %12s %14.1f %10llu %9llu %9zu %9llu %9.1f\n",
                  p.sessions, bench::human(p.records_per_sec()).c_str(),
                  p.cycles_per_byte(),
                  static_cast<unsigned long long>(p.hot_hits),
                  static_cast<unsigned long long>(p.resumes), p.epc_pages,
                  static_cast<unsigned long long>(p.epc_reloads), p.rss_mb);
    }
  }
  const SweepPoint& top = curve.back();

  if (json) {
    // Gated metrics first (deterministic), throughput after
    // (informational). Checksums are folded to 32 bits so they stay exact
    // in JSON doubles.
    std::printf("{\n");
    std::printf("  \"batch_mismatch_records\": %zu,\n",
                gated.mismatched_records);
    std::printf("  \"speedup_floor_met\": %d,\n", floor_met ? 1 : 0);
    std::printf("  \"duel_checksum32\": %llu,\n",
                static_cast<unsigned long long>(gated.checksum & 0xffffffff));
    std::printf("  \"sweep_sessions_top\": %zu,\n", top.sessions);
    std::printf("  \"sweep_resumes_top\": %llu,\n",
                static_cast<unsigned long long>(top.resumes));
    std::printf("  \"sweep_checksum32\": %llu,\n",
                static_cast<unsigned long long>(top.checksum & 0xffffffff));
    std::printf("  \"epc_pages_top\": %zu,\n", top.epc_pages);
    std::printf("  \"open_mismatch_records\": %zu,\n",
                open_gated.mismatched_records);
    std::printf("  \"open_rejected_records\": %zu,\n",
                open_gated.rejected_records);
    std::printf("  \"open_checksum32\": %llu,\n",
                static_cast<unsigned long long>(open_gated.checksum &
                                                0xffffffff));
    std::printf("  \"duel_record_bytes\": %zu,\n", gated.record_bytes);
    std::printf("  \"duel_speedup_x\": %.2f,\n", gated.speedup());
    std::printf("  \"open_speedup_x\": %.2f,\n", open_gated.speedup());
    std::printf("  \"scalar_opens_per_sec\": %.0f,\n",
                open_gated.portable_rps());
    std::printf("  \"batched_opens_per_sec\": %.0f,\n", open_gated.aesni_rps());
    std::printf("  \"legacy_records_per_sec\": %.0f,\n", gated.legacy_rps());
    std::printf("  \"batched_records_per_sec\": %.0f,\n",
                gated.zero_copy_rps());
    std::printf("  \"sweep_records_per_sec_top\": %.0f,\n",
                top.records_per_sec());
    std::printf("  \"sweep_cycles_per_byte_top\": %.2f,\n",
                top.cycles_per_byte());
    std::printf("  \"sweep_rss_mb\": %.1f,\n", top.rss_mb);
    std::printf("  \"curve\": [\n");
    for (size_t i = 0; i < curve.size(); ++i) {
      const SweepPoint& p = curve[i];
      std::printf(
          "    {\"sessions\": %zu, \"records_per_sec\": %.0f, "
          "\"cycles_per_byte\": %.2f, \"hot_hits\": %llu, "
          "\"resumes\": %llu, \"epc_pages\": %zu, \"epc_resident\": %zu, "
          "\"epc_reloads\": %llu, \"rss_mb\": %.1f}%s\n",
          p.sessions, p.records_per_sec(), p.cycles_per_byte(),
          static_cast<unsigned long long>(p.hot_hits),
          static_cast<unsigned long long>(p.resumes), p.epc_pages,
          p.epc_resident, static_cast<unsigned long long>(p.epc_reloads),
          p.rss_mb, i + 1 < curve.size() ? "," : "");
    }
    std::printf("  ]\n");
    std::printf("}\n");
  } else {
    std::printf(
        "\nduel @%zuB: %.2fx (floor >=3x: %s), "
        "streams identical: %s\n",
        gated.record_bytes, gated.speedup(), floor_met ? "MET" : "NOT MET",
        gated.mismatched_records == 0 ? "yes" : "NO");
  }

  bench::Gate gate("bench_dataplane");
  gate.pin("batch_mismatch_records", gated.mismatched_records, 0);
  gate.pin("open_mismatch_records", open_gated.mismatched_records, 0);
  gate.pin("open_rejected_records", open_gated.rejected_records, 0);
  if (!telemetry.active()) {
    gate.host_at_least("duel_speedup_x", gated.speedup(), kDuelSpeedupFloor);
  }
  if (!large && !telemetry.active()) {
    gate.pin("duel_checksum32", gated.checksum & 0xffffffff, 1995243041);
    gate.pin("open_checksum32", open_gated.checksum & 0xffffffff, 2673714050);
    gate.pin("sweep_sessions_top", top.sessions, 262144);
    gate.pin("sweep_resumes_top", top.resumes, 59114);
    gate.pin("sweep_checksum32", top.checksum & 0xffffffff, 3836346786);
    gate.pin("epc_pages_top", top.epc_pages, 16384);
  }
  return gate.exit_code();
}
