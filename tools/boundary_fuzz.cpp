// boundary_fuzz — deterministic, seed-driven red-team fuzzer for the
// enclave trust boundary (DESIGN.md §15).
//
// Drives every registered ecall entry point (EchoApp, PacketSenderApp,
// the attestation role apps, and the full SecureApp/CoreFn surface) and
// every ocall-handler path (sync, async, switchless-ring, replication
// codec) with hostile inputs: truncated/oversized/bit-flipped payloads,
// replayed sealed blobs, Iago ocall results, forged timer tokens, and
// malformed 0xE0–0xEF shard frames. The invariants it enforces:
//
//   1. The enclave either rejects hostile input cleanly (typed exception
//      or an explicit reject result) or ignores it — it never crashes,
//      never dies from an unexpected exception class, and never accepts
//      a mutated sealed blob or mutated handshake message.
//   2. The whole campaign is byte-identical on replay: the same seed
//      produces the same per-iteration outcome digests (the repo's
//      determinism-by-design invariant, extended to the hostile path).
//   3. Coverage is asserted in-tool: every CoreFn, EchoFn, PacketFn and
//      AttestFn ecall, every core/echo/packet ocall code, and every
//      gated fleet-event emission path (rollback refusal, snapshot
//      install, shard liveness flips, enclave restart) must have been
//      exercised — a fuzzer that silently stops reaching an entry point
//      fails the run. The fleet-event ring's invariants are asserted
//      after the campaign: hostile frames may not crash or wedge it.
//   4. With --taint: every secret the platform derives (report keys,
//      seal keys, attestation session keys) is tracked, and every
//      outbound ocall payload, wire message, and telemetry/trace export
//      is scanned for raw or hex-encoded key material. Any hit fails
//      the run. --inject-leak is the positive control: a deliberately
//      leaky enclave app must produce at least one finding, proving the
//      detector works.
//
// Usage:
//   boundary_fuzz [--seed N] [--iters N] [--max-seconds S] [--json]
//                 [--corpus-dir DIR] [--repro SEED:ITER]
//                 [--taint] [--inject-leak]
//
// Reproduce a failure:  boundary_fuzz --seed S --repro S:I
// (replays the campaign deterministically up to iteration I and reports
// the finding; campaigns depend only on the seed).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/node.h"
#include "core/open_project.h"
#include "core/ports.h"
#include "core/replication.h"
#include "core/shard_group.h"
#include "netsim/sim.h"
#include "sgx/adversary.h"
#include "sgx/apps.h"
#include "sgx/platform.h"
#include "sgx/sealing.h"
#include "sgx/taint.h"
#include "telemetry/events.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace tenet {
namespace {

using crypto::Bytes;
using crypto::BytesView;

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
  uint64_t seed = 1;
  uint64_t iters = 2000;
  double max_seconds = 0;  // 0 = unbounded
  std::string corpus_dir;
  bool json = false;
  bool taint = false;
  bool inject_leak = false;
  bool repro = false;
  uint64_t repro_iter = 0;
  uint64_t replay_prefix = 512;  // iterations re-run for the replay check
};

// ---------------------------------------------------------------------------
// Outcome folding: every boundary interaction folds its classification and
// result bytes into a per-iteration FNV digest; replay equality of the
// digests is the byte-identical-on-replay assertion.
// ---------------------------------------------------------------------------

enum class Outcome : uint8_t { kOk = 0, kRejected = 1, kFault = 2,
                               kAppError = 3 };

struct Digest {
  uint64_t h = 1469598103934665603ull;
  void mix(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void mix_u64(uint64_t v) { mix(&v, sizeof v); }
  void mix_bytes(BytesView v) { mix(v.data(), v.size()); }
};

struct Finding {
  uint64_t iter = 0;
  std::string target;
  std::string description;
};

// ---------------------------------------------------------------------------
// Coverage ledger: required entry points and ocall codes, asserted at the
// end of every campaign.
// ---------------------------------------------------------------------------

struct Coverage {
  std::set<std::pair<std::string, uint32_t>> ecalls;
  std::set<uint32_t> ocalls;
  std::set<std::string> epc;  // EPC adversary steps that took effect

  void ecall(const std::string& app, uint32_t fn) { ecalls.insert({app, fn}); }
  void ocall(uint32_t code) { ocalls.insert(code); }
  void epc_step(const std::string& step) { epc.insert(step); }

  [[nodiscard]] std::vector<std::string> missing() const {
    std::vector<std::string> out;
    const auto need_ecall = [&](const char* app, uint32_t fn) {
      if (!ecalls.count({app, fn})) {
        out.push_back(std::string("ecall ") + app + ":" + std::to_string(fn));
      }
    };
    for (uint32_t fn = core::kFnStart; fn <= core::kFnRestore; ++fn) {
      need_ecall("core", fn);
    }
    for (uint32_t fn = sgx::apps::kEchoReverse; fn <= sgx::apps::kEchoUnseal;
         ++fn) {
      need_ecall("echo", fn);
    }
    need_ecall("packet", sgx::apps::kSendRun);
    for (uint32_t fn = sgx::apps::kCreateChallenge;
         fn <= sgx::apps::kGetSessionKey; ++fn) {
      need_ecall("attest", fn);
    }
    for (const uint32_t code :
         {uint32_t{core::kOcallSend}, uint32_t{core::kOcallLog},
          uint32_t{core::kOcallScheduleTimer}, uint32_t{core::kOcallCancelTimer},
          uint32_t{0x42}, uint32_t{sgx::apps::kOcallNetOpen},
          uint32_t{sgx::apps::kOcallNetSend},
          uint32_t{sgx::apps::kOcallNetSendBatch}}) {
      if (!ocalls.count(code)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "ocall 0x%x", code);
        out.emplace_back(buf);
      }
    }
    // The MEE adversary surface (DESIGN.md §7): a replayed and a corrupted
    // resident page must each have faulted an entry and been recovered
    // from by a restart.
    for (const char* step :
         {"read_ciphertext", "replace_resident", "corrupt", "restart"}) {
      if (!epc.count(step)) out.push_back(std::string("epc:") + step);
    }
#if TENET_TELEMETRY_ENABLED
    // Event-emission paths (DESIGN.md §16): the fleet-event ring sits on
    // the same handlers the hostile frames hit, so the campaign must have
    // driven each of these emission sites at least once (the event
    // preamble does so deterministically).
    for (const auto& [type, name] :
         {std::make_pair(telemetry::EventType::kRollbackRefused,
                         "rollback_refused"),
          std::make_pair(telemetry::EventType::kSnapshotInstalled,
                         "snapshot_installed"),
          std::make_pair(telemetry::EventType::kShardDown, "shard_down"),
          std::make_pair(telemetry::EventType::kShardUp, "shard_up"),
          std::make_pair(telemetry::EventType::kEnclaveRestart,
                         "enclave_restart")}) {
      if (telemetry::event_log().count(type) == 0) {
        out.push_back(std::string("event:") + name);
      }
    }
#endif
    return out;
  }
};

// ---------------------------------------------------------------------------
// Fuzz apps (tool-only trusted code; never part of src/)
// ---------------------------------------------------------------------------

/// EchoApp plus one deliberately leaky entry point: fn kLeakFn pushes the
/// enclave's own seal key out through an async log ocall — the textbook
/// "secrets via ocall arguments" misuse. Only launched under
/// --inject-leak, where the taint detector MUST flag it.
constexpr uint32_t kLeakFn = 99;

class LeakyEchoApp final : public sgx::EnclaveApp {
 public:
  crypto::Bytes handle_call(uint32_t fn, BytesView arg,
                            sgx::EnclaveEnv& env) override {
    if (fn == kLeakFn) {
      // taint-lint: allow(deliberate leak — the --inject-leak positive
      // control; the dynamic taint detector must catch this at runtime)
      env.ocall_async(core::kOcallLog, env.seal_key(crypto::to_bytes("t")));
      return {};
    }
    return echo_.handle_call(fn, arg, env);
  }

 private:
  sgx::apps::EchoApp echo_;
};

/// Ledger SecureApp with a red-team control port: kInjectFrame hands an
/// arbitrary byte string straight to ShardReplica::handle_secure as if it
/// had arrived (authenticated) from `peer` — the post-decryption hostile
/// surface a compromised-but-correctly-measured peer could drive.
enum FuzzLedgerControl : uint32_t {
  kLedgerConfigure = 1,  // serialized ShardConfig
  kLedgerAdmit = 2,      // u64 key | LV entry
  kLedgerCount = 3,      // -> u64
  kLedgerJoin = 4,
  kLedgerSetReachable = 5,   // u32 shard | u8 up
  kLedgerInjectFrame = 100,  // u32 peer | LV frame -> u8 consumed
};

class FuzzLedgerApp final : public core::SecureApp {
 public:
  using SecureApp::SecureApp;

  void on_start(core::Ctx& ctx) override {
    // Covers the async log ocall path with benign content.
    ctx.env().ocall_async(core::kOcallLog, crypto::to_bytes("fuzz-start"));
  }

  void on_secure_message(core::Ctx&, netsim::NodeId, BytesView) override {}

  crypto::Bytes on_control(core::Ctx& ctx, uint32_t subfn,
                           BytesView arg) override {
    switch (subfn) {
      case kLedgerConfigure: {
        core::ShardReplica::Hooks hooks;
        hooks.apply = [this](core::Ctx& c, uint32_t, uint64_t key,
                             BytesView entry) {
          c.alloc(entry.size());
          entries_[key] = Bytes(entry.begin(), entry.end());
        };
        hooks.snapshot = [this](core::Ctx&) { return serialize(); };
        hooks.install = [this](core::Ctx&, BytesView state) {
          return load(state);
        };
        enable_sharding(ctx, core::ShardConfig::deserialize(arg),
                        std::move(hooks));
        return {};
      }
      case kLedgerAdmit: {
        crypto::Reader r(arg);
        const uint64_t key = r.u64();
        const BytesView entry = r.lv_view();
        if (shard() != nullptr && shard()->active()) {
          shard()->admit(ctx, key, entry);
        }
        ctx.alloc(entry.size());
        entries_[key] = Bytes(entry.begin(), entry.end());
        return {};
      }
      case kLedgerCount: {
        Bytes out;
        crypto::append_u64(out, entries_.size());
        return out;
      }
      case kLedgerJoin:
        if (shard() != nullptr) shard()->begin_join(ctx);
        return {};
      case kLedgerSetReachable: {
        crypto::Reader r(arg);
        const uint32_t shard_id = r.u32();
        const uint8_t up = r.u8();
        if (shard() != nullptr) shard()->set_reachable(ctx, shard_id, up != 0);
        return {};
      }
      case kLedgerInjectFrame: {
        crypto::Reader r(arg);
        const uint32_t peer = r.u32();
        const BytesView frame = r.lv_view();
        Bytes out;
        out.push_back(shard() != nullptr &&
                              shard()->handle_secure(ctx, peer, frame)
                          ? 1
                          : 0);
        return out;
      }
      default:
        return {};
    }
  }

  crypto::Bytes on_checkpoint(core::Ctx&) override { return serialize(); }
  void on_restore(core::Ctx&, BytesView state) override { (void)load(state); }

 private:
  [[nodiscard]] crypto::Bytes serialize() const {
    Bytes out;
    crypto::append_u32(out, static_cast<uint32_t>(entries_.size()));
    for (const auto& [key, entry] : entries_) {
      crypto::append_u64(out, key);
      crypto::append_lv(out, entry);
    }
    return out;
  }
  bool load(BytesView state) {
    try {
      crypto::Reader r(state);
      const uint32_t n = r.u32();
      for (uint32_t i = 0; i < n; ++i) {
        const uint64_t key = r.u64();
        entries_[key] = r.lv();
      }
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }
  std::map<uint64_t, Bytes> entries_;
};

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

class Campaign {
 public:
  Campaign(const Options& opt, Coverage& cov, std::vector<Finding>& findings)
      : opt_(opt), cov_(cov), findings_(findings) {
    // The instrumented boundary (DESIGN.md §15): every ocall payload, on
    // every path — sync, async fallback, switchless drain — funnels
    // through this tap. Coverage always; taint scanning on demand.
    sgx::taint::set_ocall_tap([this](uint32_t code, BytesView payload) {
      cov_.ocall(code);
      if (opt_.taint) snoop_.scan(code, payload);
    });
    if (opt_.taint) {
      sgx::taint::set_key_tap([this](std::string_view kind, BytesView key) {
        if (keys_tracked_ >= kMaxNeedles) {
          ++keys_skipped_;
          return;
        }
        ++keys_tracked_;
        snoop_.track(std::string(kind) + "#" + std::to_string(keys_tracked_),
                     key);
      });
    }
  }

  ~Campaign() {
    sgx::taint::set_ocall_tap(nullptr);
    if (opt_.taint) sgx::taint::set_key_tap(nullptr);
  }

  /// Fixed coverage preamble: exercises every required entry point once,
  /// deterministically, so the coverage assertion never depends on the
  /// random iteration mix. Runs before iteration 0 and folds into the
  /// replay digest like any iteration.
  uint64_t preamble() {
    Digest d;
    run_guarded(static_cast<uint64_t>(-1), "preamble", d,
                [&] { packet_preamble(d); });
    run_guarded(static_cast<uint64_t>(-1), "preamble", d,
                [&] { attest_iteration(0, d, /*preamble=*/true); });
    run_guarded(static_cast<uint64_t>(-1), "preamble", d,
                [&] { core_preamble(d); });
    run_guarded(static_cast<uint64_t>(-1), "preamble", d, [&] {
      for (uint32_t fn = sgx::apps::kEchoReverse;
           fn <= sgx::apps::kEchoUnseal; ++fn) {
        echo_call(fn, crypto::to_bytes("\x04\x00\x00\x00pre"), d);
      }
    });
    run_guarded(static_cast<uint64_t>(-1), "preamble", d,
                [&] { event_preamble(d); });
    run_guarded(static_cast<uint64_t>(-1), "preamble", d, [&] {
      epc_step(/*replay=*/true, 0, d);
      epc_step(/*replay=*/false, 0, d);
    });
    return d.h;
  }

  /// Runs iteration `i`; returns its digest.
  uint64_t iteration(uint64_t i) {
    Digest d;
    crypto::Drbg rng = crypto::Drbg::from_label(
        opt_.seed * 0x9e3779b97f4a7c15ull + i, "tenet.boundary_fuzz.iter");
    switch (rng.uniform(16)) {
      case 0: case 1: case 2: case 3: case 4: case 5: case 6: case 7:
        run_guarded(i, "echo", d, [&] { echo_iteration(rng, d); });
        break;
      case 8: case 9: case 10:
        run_guarded(i, "ledger", d, [&] { ledger_iteration(rng, d); });
        break;
      case 11: case 12: case 13:
        run_guarded(i, "shard-codec", d, [&] { shard_iteration(rng, d); });
        break;
      case 14:
        run_guarded(i, "attest", d, [&] { attest_iteration(rng.next_u64(), d,
                                                           false); });
        break;
      default:
        run_guarded(i, "packet", d, [&] { packet_iteration(rng, d); });
        break;
    }
    return d.h;
  }

  /// Post-campaign taint sweep over telemetry and trace exports.
  void scan_exports() {
    if (!opt_.taint) return;
    snoop_.scan_text(0xF001, telemetry::registry().metrics_json());
    snoop_.scan_text(0xF002, telemetry::tracer().chrome_json());
    for (const auto& hit : snoop_.hits()) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "key material \"%s\" crossed the boundary via %s 0x%x "
                    "at offset %zu (%s form)",
                    hit.needle.c_str(),
                    hit.code >= 0xF000 ? "export" : "ocall", hit.code,
                    hit.offset, hit.hex ? "hex" : "raw");
      findings_.push_back(Finding{0, "taint", buf});
    }
  }

  [[nodiscard]] uint64_t keys_tracked() const { return keys_tracked_; }
  [[nodiscard]] uint64_t keys_skipped() const { return keys_skipped_; }
  [[nodiscard]] uint64_t payloads_scanned() const {
    return snoop_.payloads_observed();
  }
  [[nodiscard]] size_t taint_hits() const { return snoop_.hits().size(); }

 private:
  static constexpr uint64_t kMaxNeedles = 512;

  // --- shared finding guard ------------------------------------------------

  /// Every fuzz operation runs under this guard. Handled rejections are
  /// folded into the digest by the ops themselves; only unexpected
  /// exception classes (or allocation death) become findings.
  template <typename F>
  void run_guarded(uint64_t iter, const char* target, Digest& d, F&& f) {
    try {
      f();
    } catch (const std::bad_alloc&) {
      findings_.push_back(
          Finding{iter, target, "allocation death (std::bad_alloc escaped)"});
      d.mix_u64(0xBADA110C);
    } catch (const sgx::HardwareFault& e) {
      // A fault that escapes a whole iteration (not just one op) still
      // counts as handled — but it must be deterministic, so fold it.
      d.mix_u64(0xFA017);
      d.mix(e.what(), std::strlen(e.what()));
    } catch (const std::exception& e) {
      d.mix_u64(0xE44);
      d.mix(e.what(), std::strlen(e.what()));
    } catch (...) {
      findings_.push_back(Finding{
          iter, target, "non-standard exception escaped the boundary"});
      d.mix_u64(0xDEAD);
    }
  }

  /// Classifies one boundary call. Returns the result for chaining.
  template <typename F>
  Bytes classify(Digest& d, F&& call) {
    try {
      Bytes result = call();
      d.mix_u64(static_cast<uint64_t>(Outcome::kOk));
      d.mix_bytes(result);
      return result;
    } catch (const sgx::HardwareFault& e) {
      d.mix_u64(static_cast<uint64_t>(Outcome::kFault));
      d.mix(e.what(), std::strlen(e.what()));
    } catch (const std::exception& e) {
      d.mix_u64(static_cast<uint64_t>(Outcome::kAppError));
      d.mix(e.what(), std::strlen(e.what()));
    }
    return {};
  }

  // --- echo target ---------------------------------------------------------

  struct EchoWorld {
    sgx::Authority authority;
    sgx::Vendor vendor{"fuzz-vendor"};
    sgx::Platform platform{authority, "fuzz-echo-host"};
    sgx::Enclave* enclave = nullptr;
    Bytes good_sealed;  // a known-valid sealed blob for mutation
    crypto::Drbg iago{crypto::Drbg::from_label(7, "tenet.fuzz.iago")};
  };

  void fresh_echo_world() {
    echo_ = std::make_unique<EchoWorld>();
    sgx::EnclaveImage image =
        sgx::apps::echo_image(/*variant=*/opt_.inject_leak ? 7 : 0);
    if (opt_.inject_leak) {
      image.factory = [] { return std::make_unique<LeakyEchoApp>(); };
    }
    attach_echo(echo_->platform.launch(echo_->vendor, image),
                /*switchless=*/echo_worlds_++ % 2 == 1);
    echo_->good_sealed = classify_discard([&] {
      return echo_->enclave->ecall(sgx::apps::kEchoSeal,
                                   crypto::to_bytes("genuine state"));
    });
  }

  /// Makes `enclave` the echo world's enclave, wired to the Iago host.
  void attach_echo(sgx::Enclave& enclave, bool switchless) {
    echo_->enclave = &enclave;
    if (switchless) enclave.enable_switchless();
    EchoWorld* w = echo_.get();
    enclave.set_ocall_handler([w](uint32_t code, BytesView payload) {
      // Iago host: answers the echo round-trip ocall with hostile bytes
      // drawn from a deterministic stream; async codes get the empty
      // (success) result.
      (void)payload;
      if (code != 0x42) return Bytes{};
      return w->iago.bytes(w->iago.uniform(257));
    });
  }

  template <typename F>
  Bytes classify_discard(F&& call) {
    Digest scratch;
    return classify(scratch, std::forward<F>(call));
  }

  void echo_call(uint32_t fn, BytesView arg, Digest& d) {
    if (!echo_ || !echo_->enclave->alive()) fresh_echo_world();
    cov_.ecall("echo", fn);
    d.mix_u64(fn);
    (void)classify(d, [&] { return echo_->enclave->ecall(fn, arg); });
  }

  void echo_iteration(crypto::Drbg& rng, Digest& d) {
    if (!echo_ || echo_iters_++ % 512 == 511) fresh_echo_world();
    const uint32_t pick = static_cast<uint32_t>(rng.uniform(11));
    switch (pick) {
      case 0:  // unknown fn: must be ignored, not crash
        echo_call(static_cast<uint32_t>(rng.uniform(1u << 16)),
                  rng.bytes(rng.uniform(64)), d);
        break;
      case 1: {  // bounded alloc, occasionally pushing toward EPC pressure
        Bytes arg;
        const uint32_t n = rng.uniform(100) == 0
                               ? static_cast<uint32_t>(rng.uniform(1u << 22))
                               : static_cast<uint32_t>(rng.uniform(1u << 14));
        crypto::append_u32(arg, n);
        echo_call(sgx::apps::kEchoAlloc, arg, d);
        // Truncated arg: read_u32 must reject, not read wild.
        echo_call(sgx::apps::kEchoAlloc, rng.bytes(rng.uniform(4)), d);
        break;
      }
      case 2: {  // mutated sealed blob must never unseal
        Bytes mutated;
        switch (rng.uniform(3)) {
          case 0:
            mutated = sgx::adversary::bit_flip(echo_->good_sealed,
                                               rng.next_u64());
            break;
          case 1:
            mutated = sgx::adversary::truncate(
                echo_->good_sealed, rng.uniform(echo_->good_sealed.size() + 1));
            break;
          default:
            mutated = sgx::adversary::extend(
                echo_->good_sealed, 1 + rng.uniform(64),
                static_cast<uint8_t>(rng.uniform(256)));
            break;
        }
        if (mutated == echo_->good_sealed) break;  // flip landed harmlessly? no: bit_flip always changes
        const Bytes out = classify_discard([&] {
          return echo_->enclave->ecall(sgx::apps::kEchoUnseal, mutated);
        });
        cov_.ecall("echo", sgx::apps::kEchoUnseal);
        d.mix_bytes(out);
        if (!out.empty()) {
          findings_.push_back(Finding{
              0, "echo", "mutated sealed blob unsealed successfully"});
        }
        break;
      }
      case 3:  // replay an untampered sealed blob: must still unseal
        echo_call(sgx::apps::kEchoUnseal, echo_->good_sealed, d);
        break;
      case 4:
        echo_call(sgx::apps::kEchoThrow, {}, d);
        break;
      case 5:  // oversized payload through the ocall round trip
        echo_call(sgx::apps::kEchoOcall, rng.bytes(4096 + rng.uniform(4096)),
                  d);
        break;
      case 6:
        if (echo_->enclave->switchless_enabled()) {
          echo_->enclave->flush_switchless();
        }
        echo_call(sgx::apps::kEchoSealKey, {}, d);
        break;
      case 7:
        if (opt_.inject_leak) echo_call(kLeakFn, {}, d);
        echo_call(sgx::apps::kEchoSeal, rng.bytes(rng.uniform(512)), d);
        break;
      case 8: {
        const bool replay = rng.uniform(2) == 0;
        epc_step(replay, rng.next_u64(), d);
        break;
      }
      default:
        echo_call(sgx::apps::kEchoReverse, rng.bytes(rng.uniform(2048)), d);
        break;
    }
  }

  // --- EPC adversary step --------------------------------------------------

  /// The MEE adversary (DESIGN.md §7) against the live echo enclave, through
  /// platform.epc(): read a heap page's ciphertext, let the page take new
  /// contents, then write the older ciphertext back (`replay`) or flip a
  /// byte of the current one at `offset`. Either way the next ecall must
  /// fail closed with a HardwareFault, and restart_enclave must bring back
  /// an enclave that answers.
  void epc_step(bool replay, uint64_t offset, Digest& d) {
    if (!echo_ || !echo_->enclave->alive()) fresh_echo_world();
    Bytes alloc;
    crypto::append_u32(alloc, sgx::kPageSize);
    echo_call(sgx::apps::kEchoAlloc, alloc, d);  // maps the first heap page
    if (!echo_->enclave->alive()) return;
    sgx::Epc& epc = echo_->platform.epc();
    const sgx::EnclaveId id = echo_->enclave->id();
    constexpr uint64_t kPage = sgx::kHeapBaseVaddr;

    epc.write_page(id, kPage, crypto::to_bytes("epc-step:old"));
    const std::optional<Bytes> old = epc.adversary_read_ciphertext(id, kPage);
    if (!old.has_value()) {
      findings_.push_back(
          Finding{0, "epc", "mapped heap page has no ciphertext to read"});
      return;
    }
    cov_.epc_step("read_ciphertext");
    d.mix_bytes(*old);
    epc.write_page(id, kPage, crypto::to_bytes("epc-step:new"));
    const bool tampered = replay
                              ? epc.adversary_replace_resident(id, kPage, *old)
                              : epc.adversary_corrupt(id, kPage, offset);
    if (!tampered) {
      findings_.push_back(
          Finding{0, "epc", "resident heap page refused the adversary write"});
      return;
    }
    cov_.epc_step(replay ? "replace_resident" : "corrupt");
    d.mix_u64(replay ? 1 : 2);

    try {
      (void)echo_->enclave->ecall(sgx::apps::kEchoReverse,
                                  crypto::to_bytes("x"));
      findings_.push_back(Finding{
          0, "epc",
          replay ? "replayed resident ciphertext entered without a fault"
                 : "corrupted resident page entered without a fault"});
      return;
    } catch (const sgx::HardwareFault& e) {
      d.mix(e.what(), std::strlen(e.what()));
    } catch (const std::exception&) {
      findings_.push_back(Finding{
          0, "epc", "tampered page raised an app error instead of a fault"});
      return;
    }

    const bool switchless = echo_->enclave->switchless_enabled();
    attach_echo(echo_->platform.restart_enclave(id), switchless);
    const Bytes answer = classify(d, [&] {
      return echo_->enclave->ecall(sgx::apps::kEchoReverse,
                                   crypto::to_bytes("ok"));
    });
    if (answer != crypto::to_bytes("ko")) {
      findings_.push_back(
          Finding{0, "epc", "restart_enclave did not recover the enclave"});
      return;
    }
    cov_.epc_step("restart");
  }

  // --- packet target -------------------------------------------------------

  struct PacketWorld {
    sgx::Authority authority;
    sgx::Vendor vendor{"fuzz-vendor"};
    sgx::Platform platform{authority, "fuzz-packet-host"};
    sgx::Enclave* enclave = nullptr;
  };

  void fresh_packet_world() {
    packet_ = std::make_unique<PacketWorld>();
    packet_->enclave =
        &packet_->platform.launch(packet_->vendor,
                                  sgx::apps::packet_sender_image());
    packet_->enclave->set_ocall_handler(
        [](uint32_t, BytesView) { return Bytes{}; });
  }

  void packet_run(BytesView wire, Digest& d) {
    if (!packet_ || !packet_->enclave->alive()) fresh_packet_world();
    cov_.ecall("packet", sgx::apps::kSendRun);
    (void)classify(d, [&] {
      return packet_->enclave->ecall(sgx::apps::kSendRun, wire);
    });
  }

  void packet_preamble(Digest& d) {
    sgx::apps::SendRunRequest req;
    req.packet_count = 4;
    req.packet_size = 128;
    packet_run(req.serialize(), d);  // covers kOcallNetOpen + kOcallNetSend
    req.batched = true;
    req.batch_size = 2;
    packet_run(req.serialize(), d);  // covers kOcallNetSendBatch
  }

  void packet_iteration(crypto::Drbg& rng, Digest& d) {
    sgx::apps::SendRunRequest req;
    // packet_count stays small on purpose: a huge count is a DoS by the
    // host against its own enclave (permitted by the threat model) that
    // would only stall the fuzzer, not find anything.
    req.packet_count = 1 + static_cast<uint32_t>(rng.uniform(8));
    req.packet_size = static_cast<uint32_t>(rng.uniform(4096));
    req.encrypt = rng.uniform(2) == 0;
    req.batched = rng.uniform(2) == 0;
    req.batch_size = static_cast<uint32_t>(rng.uniform(32));
    Bytes wire = req.serialize();
    if (rng.uniform(2) == 0) {
      wire = sgx::adversary::truncate(wire, rng.uniform(wire.size() + 1));
    }
    packet_run(wire, d);
  }

  // --- attestation target --------------------------------------------------

  void attest_iteration(uint64_t sub_seed, Digest& d, bool preamble) {
    sgx::Authority authority;
    sgx::Vendor vendor{"fuzz-vendor"};
    sgx::Platform platform{authority, "fuzz-attest-host"};
    sgx::AttestationConfig cfg;
    cfg.mutual = false;
    cfg.expect.expect_enclave(sgx::apps::target_image(authority, cfg).measure());
    sgx::Enclave& challenger =
        platform.launch(vendor, sgx::apps::challenger_image(authority, cfg));
    sgx::Enclave& target =
        platform.launch(vendor, sgx::apps::target_image(authority, cfg));
    const sgx::OcallHandler handler = [](uint32_t, BytesView) {
      return Bytes{};
    };
    challenger.set_ocall_handler(handler);
    target.set_ocall_handler(handler);

    crypto::Drbg rng = crypto::Drbg::from_label(sub_seed, "tenet.fuzz.attest");
    // Mutation plan: 0 = clean handshake, 1..3 = flip one message.
    const uint64_t plan = preamble ? 0 : rng.uniform(4);
    const auto mutate = [&](Bytes msg, uint64_t stage) {
      if (plan != stage) return msg;
      return sgx::adversary::bit_flip(msg, rng.next_u64());
    };

    cov_.ecall("attest", sgx::apps::kCreateChallenge);
    Bytes msg1 = classify(
        d, [&] { return challenger.ecall(sgx::apps::kCreateChallenge, {}); });
    msg1 = mutate(std::move(msg1), 1);

    cov_.ecall("attest", sgx::apps::kHandleChallenge);
    Bytes msg2 = classify(
        d, [&] { return target.ecall(sgx::apps::kHandleChallenge, msg1); });
    msg2 = mutate(std::move(msg2), 2);

    cov_.ecall("attest", sgx::apps::kConsumeResponse);
    const Bytes outcome = classify(
        d, [&] { return challenger.ecall(sgx::apps::kConsumeResponse, msg2); });
    const bool accepted = !outcome.empty() && outcome[0] == 1;
    if (plan == 0 && !accepted) {
      findings_.push_back(
          Finding{0, "attest", "clean handshake failed to verify"});
    }
    // A flipped msg2 (the quote response) accepted at this stage is a
    // broken binding. A flipped msg1 is judged at the confirm stage: the
    // two sides hold different transcripts, so a fully-agreeing session
    // can only mean the flipped field was never bound.
    if (plan == 2 && accepted) {
      findings_.push_back(Finding{
          0, "attest",
          "bit-flipped attestation response was accepted (binding broken)"});
    }
    if (accepted) {
      cov_.ecall("attest", sgx::apps::kCreateConfirm);
      Bytes msg3 = classify(
          d, [&] { return challenger.ecall(sgx::apps::kCreateConfirm, {}); });
      msg3 = mutate(std::move(msg3), 3);
      cov_.ecall("attest", sgx::apps::kVerifyConfirm);
      const Bytes confirmed = classify(
          d, [&] { return target.ecall(sgx::apps::kVerifyConfirm, msg3); });
      const bool ok = !confirmed.empty() && confirmed[0] == 1;
      if (plan == 0 && !ok) {
        findings_.push_back(
            Finding{0, "attest", "clean confirm failed to verify"});
      }
      if (plan == 3 && ok) {
        findings_.push_back(
            Finding{0, "attest", "bit-flipped confirm was accepted"});
      }
      if (plan == 1 && ok) {
        findings_.push_back(Finding{
            0, "attest",
            "handshake with bit-flipped challenge fully agreed (challenge "
            "byte not bound)"});
      }
      cov_.ecall("attest", sgx::apps::kGetSessionKey);
      (void)classify(d, [&] {
        return challenger.ecall(sgx::apps::kGetSessionKey,
                                crypto::to_bytes("fuzz"));
      });
    } else {
      // Reserved-path coverage on the reject branch: both calls must
      // reject cleanly with no session established.
      cov_.ecall("attest", sgx::apps::kCreateConfirm);
      (void)classify(
          d, [&] { return challenger.ecall(sgx::apps::kCreateConfirm, {}); });
      cov_.ecall("attest", sgx::apps::kVerifyConfirm);
      (void)classify(
          d, [&] { return target.ecall(sgx::apps::kVerifyConfirm, {}); });
      cov_.ecall("attest", sgx::apps::kGetSessionKey);
      const Bytes key = classify(d, [&] {
        return challenger.ecall(sgx::apps::kGetSessionKey,
                                crypto::to_bytes("fuzz"));
      });
      if (plan != 0 && !key.empty()) {
        findings_.push_back(Finding{
            0, "attest",
            "session key handed out after failed attestation (use-before-"
            "verify)"});
      }
    }
  }

  // --- ledger / shard-codec target ----------------------------------------

  struct LedgerWorld {
    explicit LedgerWorld(uint64_t seed, bool switchless)
        : sim(seed), project("fuzz-ledger", "tenet fuzz ledger v1\n", nullptr) {
      const sgx::AttestationConfig cfg = project.policy(/*mutual=*/true);
      const sgx::Authority* auth = &authority;
      sgx::EnclaveImage image = project.build();
      image.factory = [auth, cfg] {
        auto app = std::make_unique<FuzzLedgerApp>(*auth, cfg);
        netsim::RetryPolicy retry;
        retry.enabled = true;
        app->enable_recovery(retry);
        return app;
      };
      for (size_t i = 0; i < 2; ++i) {
        nodes.push_back(std::make_unique<core::EnclaveNode>(
            sim, authority, "fuzz-ledger-" + std::to_string(i),
            project.foundation(), image));
        if (switchless) nodes.back()->enable_switchless();
        nodes.back()->start();
        members.push_back(core::ShardMember{static_cast<uint32_t>(i),
                                            nodes.back()->id()});
      }
    }

    netsim::Simulator sim;
    sgx::Authority authority;
    core::OpenProject project;
    std::vector<std::unique_ptr<core::EnclaveNode>> nodes;
    std::vector<core::ShardMember> members;
  };

  void fresh_ledger_world() {
    ledger_ = std::make_unique<LedgerWorld>(
        opt_.seed * 1315423911ull + ledger_worlds_, ledger_worlds_ % 2 == 1);
    ++ledger_worlds_;
    if (opt_.taint) {
      // Wire-level taint tap: everything any node emits is scanned. The
      // ocall payload framing is [dst][port][len]+bytes; the wiretap sees
      // the payload after host framing, which is the part that leaves
      // the machine.
      ledger_->sim.set_wiretap([this](const netsim::Message& m) {
        snoop_.scan(0x1000 + m.port, m.payload);
      });
    }
    cov_.ecall("core", core::kFnStart);  // issued by node.start() above
    core::ShardConfig cfg;
    cfg.replication = 2;
    cfg.members = ledger_->members;
    for (size_t i = 0; i < ledger_->nodes.size(); ++i) {
      cfg.self = static_cast<uint32_t>(i);
      cov_.ecall("core", core::kFnControl);
      ledger_->nodes[i]->control(kLedgerConfigure, cfg.serialize());
    }
    // Ring attestation with recovery enabled: covers kFnConnect,
    // kFnDeliver and the timer schedule/cancel ocalls.
    cov_.ecall("core", core::kFnConnect);
    cov_.ecall("core", core::kFnDeliver);
    ledger_->sim.run();
  }

  core::EnclaveNode& ledger_node(size_t i) { return *ledger_->nodes[i]; }

  void ledger_ensure() {
    if (!ledger_ || ledger_iters_++ % 256 == 255) fresh_ledger_world();
    if (ledger_node(0).dead() || ledger_node(1).dead()) fresh_ledger_world();
  }

  void core_preamble(Digest& d) {
    fresh_ledger_world();
    core::EnclaveNode& n0 = ledger_node(0);
    cov_.ecall("core", core::kFnControl);
    Bytes arg;
    crypto::append_u64(arg, 1);
    crypto::append_lv(arg, crypto::to_bytes("pre-entry"));
    (void)classify(d, [&] { return n0.control(kLedgerAdmit, arg); });
    ledger_->sim.run();
    cov_.ecall("core", core::kFnQuery);
    d.mix_u64(n0.query(core::kQueryAttestedPeerCount));
    cov_.ecall("core", core::kFnCheckpoint);
    const Bytes cp = n0.checkpoint();
    vault_.store("preamble", cp);
    cov_.ecall("core", core::kFnRestore);
    d.mix_u64(n0.restore(cp) ? 1 : 0);
    cov_.ecall("core", core::kFnTimer);
    Bytes token;
    crypto::append_u64(token, 0x7e57);
    (void)classify(d, [&] { return n0.enclave().ecall(core::kFnTimer, token); });
    cov_.ecall("core", core::kFnDisconnect);
    n0.disconnect_from(ledger_node(1).id());
    cov_.ecall("core", core::kFnConnect);
    n0.connect_to(ledger_node(1).id());
    ledger_->sim.run();
  }

  /// Deterministic event-path coverage (DESIGN.md §16): the fleet-event
  /// ring hangs off the same handlers the hostile frames hit, so each
  /// emission site is driven once here — a stale snapshot (rollback
  /// refusal), a dominating snapshot (install), a reachability flip both
  /// ways, and an enclave restart — keeping the `event:` coverage
  /// assertion independent of the random iteration mix.
  void event_preamble(Digest& d) {
#if TENET_TELEMETRY_ENABLED
    if (!ledger_) fresh_ledger_world();
    core::EnclaveNode& n0 = ledger_node(0);
    const uint32_t trusted = ledger_node(1).id();
    // Advance node 0's version vector so an empty snapshot reads stale.
    Bytes admit;
    crypto::append_u64(admit, 0xE0E);
    crypto::append_lv(admit, crypto::to_bytes("event-entry"));
    (void)classify(d, [&] { return n0.control(kLedgerAdmit, admit); });
    ledger_->sim.run();
    // Stale snapshot (empty version vector) -> kRollbackRefused.
    {
      Bytes inj;
      crypto::append_u32(inj, trusted);
      crypto::append_lv(inj, core::encode_shard_snapshot(
                                 1, core::VersionVector{}, {}));
      (void)classify(d, [&] { return n0.control(kLedgerInjectFrame, inj); });
    }
    // Snapshot carrying an unseen origin -> install -> kSnapshotInstalled.
    {
      core::VersionVector vv;
      vv.observe(1, 1);
      Bytes state;
      crypto::append_u32(state, 0);  // well-formed empty ledger state
      Bytes inj;
      crypto::append_u32(inj, trusted);
      crypto::append_lv(inj, core::encode_shard_snapshot(1, vv, state));
      (void)classify(d, [&] { return n0.control(kLedgerInjectFrame, inj); });
    }
    // Reachability flip both ways -> kShardDown, then kShardUp.
    for (const uint8_t up : {uint8_t{0}, uint8_t{1}}) {
      Bytes flip;
      crypto::append_u32(flip, 1);
      flip.push_back(up);
      (void)classify(d, [&] { return n0.control(kLedgerSetReachable, flip); });
    }
    ledger_->sim.run();
    // Throwaway enclave restart -> kEnclaveRestart.
    sgx::Authority authority;
    sgx::Vendor vendor{"fuzz-vendor"};
    sgx::Platform platform{authority, "fuzz-event-host"};
    sgx::Enclave& enclave = platform.launch(vendor, sgx::apps::echo_image(0));
    enclave.set_ocall_handler([](uint32_t, BytesView) { return Bytes{}; });
    d.mix_u64(platform.restart_enclave(enclave.id()).id());
#else
    (void)d;
#endif
  }

  void ledger_iteration(crypto::Drbg& rng, Digest& d) {
    ledger_ensure();
    core::EnclaveNode& node = ledger_node(rng.uniform(2));
    core::EnclaveNode& peer = ledger_node(0).id() == node.id()
                                  ? ledger_node(1)
                                  : ledger_node(0);
    switch (rng.uniform(8)) {
      case 0: {  // hostile network delivery on every port class
        static constexpr uint32_t kPorts[] = {
            core::kPortAttestChallenge, core::kPortAttestResponse,
            core::kPortAttestConfirm, core::kPortChannelReset,
            core::kPortSecure, core::kPortPlain, 999};
        netsim::Message m;
        m.src = rng.uniform(2) == 0 ? peer.id()
                                    : static_cast<netsim::NodeId>(
                                          rng.uniform(1u << 16));
        m.dst = node.id();
        m.port = kPorts[rng.uniform(std::size(kPorts))];
        m.payload = rng.bytes(rng.uniform(512));
        cov_.ecall("core", core::kFnDeliver);
        (void)classify(d, [&] {
          node.handle_message(m);
          return Bytes{};
        });
        break;
      }
      case 1: {  // hostile control: random subfn, junk args
        cov_.ecall("core", core::kFnControl);
        (void)classify(d, [&] {
          return node.control(static_cast<uint32_t>(rng.uniform(128)),
                              rng.bytes(rng.uniform(96)));
        });
        break;
      }
      case 2: {  // query sweep incl. unknown selectors
        cov_.ecall("core", core::kFnQuery);
        (void)classify(d, [&] {
          Bytes arg;
          crypto::append_u32(arg, static_cast<uint32_t>(rng.uniform(24)));
          return node.enclave().ecall(core::kFnQuery, arg);
        });
        break;
      }
      case 3: {  // checkpoint, then restore a mutated or replayed blob
        cov_.ecall("core", core::kFnCheckpoint);
        const Bytes cp = node.checkpoint();
        if (!cp.empty()) vault_.store("ledger", cp);
        cov_.ecall("core", core::kFnRestore);
        const uint64_t mode = rng.uniform(3);
        if (mode == 0 && !cp.empty()) {
          const Bytes mutated = sgx::adversary::bit_flip(cp, rng.next_u64());
          const bool took = node.restore(mutated);
          d.mix_u64(took ? 1 : 0);
          if (took) {
            findings_.push_back(Finding{
                0, "ledger", "bit-flipped sealed checkpoint restored"});
          }
        } else if (mode == 1 && vault_.versions("ledger") > 0) {
          // Replayed stale-but-authentic blob: unseals fine (rollback is
          // the version layer's job, exercised by the shard tests).
          d.mix_u64(node.restore(vault_.replay(
                        "ledger", rng.uniform(vault_.versions("ledger"))))
                        ? 1
                        : 0);
        } else {
          d.mix_u64(node.restore(rng.bytes(rng.uniform(256))) ? 1 : 0);
        }
        break;
      }
      case 4: {  // forged timer tokens must be ignored
        cov_.ecall("core", core::kFnTimer);
        (void)classify(d, [&] {
          Bytes token;
          crypto::append_u64(token, rng.next_u64());
          return node.enclave().ecall(core::kFnTimer, token);
        });
        // Truncated token too.
        (void)classify(d, [&] {
          return node.enclave().ecall(core::kFnTimer,
                                      rng.bytes(rng.uniform(8)));
        });
        break;
      }
      case 5: {  // disconnect/reconnect churn
        cov_.ecall("core", core::kFnDisconnect);
        node.disconnect_from(peer.id());
        cov_.ecall("core", core::kFnConnect);
        node.connect_to(peer.id());
        break;
      }
      case 6: {  // legitimate admit keeps real state flowing between ops
        cov_.ecall("core", core::kFnControl);
        Bytes arg;
        crypto::append_u64(arg, rng.next_u64());
        crypto::append_lv(arg, rng.bytes(rng.uniform(64)));
        (void)classify(d, [&] { return node.control(kLedgerAdmit, arg); });
        break;
      }
      default: {  // truncated admit args: Reader must throw, app survive
        cov_.ecall("core", core::kFnControl);
        (void)classify(d, [&] {
          return node.control(kLedgerAdmit, rng.bytes(rng.uniform(8)));
        });
        break;
      }
    }
    if (rng.uniform(16) == 0) ledger_->sim.run();
  }

  void shard_iteration(crypto::Drbg& rng, Digest& d) {
    ledger_ensure();
    core::EnclaveNode& node = ledger_node(0);
    const netsim::NodeId trusted_peer = ledger_node(1).id();
    // Hostile frame construction: start from a valid encoding, then
    // mutate — or go fully random within the 0xE0..0xEF tag range.
    Bytes frame;
    switch (rng.uniform(6)) {
      case 0:
        frame = core::encode_shard_append(
            static_cast<uint32_t>(rng.uniform(4)), rng.next_u64(),
            rng.next_u64(), static_cast<uint32_t>(rng.next_u64()),
            rng.next_u64(), rng.bytes(rng.uniform(64)));
        break;
      case 1: {  // join with a version vector that may be truncated
        core::VersionVector vv;
        for (uint64_t i = rng.uniform(4); i > 0; --i) {
          vv.observe(static_cast<uint32_t>(rng.uniform(8)), rng.next_u64());
        }
        frame = core::encode_shard_join(static_cast<uint32_t>(rng.uniform(4)),
                                        vv);
        break;
      }
      case 2: {  // snapshot with hostile vector and random state
        core::VersionVector vv;
        vv.observe(static_cast<uint32_t>(rng.uniform(4)), rng.next_u64());
        frame = core::encode_shard_snapshot(
            static_cast<uint32_t>(rng.uniform(4)), vv,
            rng.bytes(rng.uniform(128)));
        break;
      }
      case 3:  // app frame with hostile ttl/target
        frame = core::encode_shard_app(
            static_cast<uint32_t>(rng.uniform(4)),
            static_cast<uint32_t>(rng.next_u64()),
            static_cast<uint8_t>(rng.uniform(256)), rng.bytes(rng.uniform(64)));
        break;
      case 4: {  // hand-rolled duplicate-entry version vector (join shape)
        Bytes vv;
        crypto::append_u32(vv, 2);
        crypto::append_u32(vv, 1);
        crypto::append_u64(vv, rng.next_u64());
        crypto::append_u32(vv, 1);  // duplicate shard id
        crypto::append_u64(vv, rng.uniform(4));
        frame.push_back(core::kShardJoinReq);
        crypto::append_u32(frame, static_cast<uint32_t>(rng.uniform(4)));
        crypto::append_lv(frame, vv);
        break;
      }
      default:  // raw bytes under a reserved or known shard tag
        frame.push_back(static_cast<uint8_t>(0xE0 + rng.uniform(16)));
        crypto::append(frame, rng.bytes(rng.uniform(96)));
        break;
    }
    // Post-mutation pass over the assembled frame half the time.
    switch (rng.uniform(6)) {
      case 0:
        frame = sgx::adversary::bit_flip(frame, rng.next_u64());
        break;
      case 1:
        frame = sgx::adversary::truncate(frame, rng.uniform(frame.size() + 1));
        break;
      case 2:
        frame = sgx::adversary::extend(frame, 1 + rng.uniform(32),
                                       static_cast<uint8_t>(rng.uniform(256)));
        break;
      default:
        break;
    }
    // Inject from the attested peer (past the measurement gate, onto the
    // codec) or from a random peer id (exercising the gate itself).
    const uint32_t peer =
        rng.uniform(4) == 0
            ? static_cast<uint32_t>(rng.uniform(1u << 16))
            : trusted_peer;
    Bytes arg;
    crypto::append_u32(arg, peer);
    crypto::append_lv(arg, frame);
    cov_.ecall("core", core::kFnControl);
    (void)classify(d, [&] { return node.control(kLedgerInjectFrame, arg); });
    if (rng.uniform(8) == 0) ledger_->sim.run();
  }

  const Options& opt_;
  Coverage& cov_;
  std::vector<Finding>& findings_;
  sgx::adversary::OcallSnoop snoop_;
  sgx::adversary::SealedBlobVault vault_;
  uint64_t keys_tracked_ = 0;
  uint64_t keys_skipped_ = 0;

  std::unique_ptr<EchoWorld> echo_;
  uint64_t echo_worlds_ = 0;
  uint64_t echo_iters_ = 0;
  std::unique_ptr<PacketWorld> packet_;
  std::unique_ptr<LedgerWorld> ledger_;
  uint64_t ledger_worlds_ = 0;
  uint64_t ledger_iters_ = 0;
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct RunResult {
  uint64_t iterations_run = 0;
  bool replay_ok = true;
  bool coverage_ok = true;
  std::vector<std::string> coverage_missing;
  std::vector<Finding> findings;
  Coverage coverage;
  uint64_t keys_tracked = 0;
  uint64_t keys_skipped = 0;
  uint64_t payloads_scanned = 0;
  uint64_t fleet_events = 0;
  double elapsed = 0;
};

RunResult run_campaign(const Options& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  RunResult res;
  Campaign campaign(opt, res.coverage, res.findings);

  std::vector<uint64_t> digests;
  digests.reserve(std::min<uint64_t>(opt.iters, opt.replay_prefix) + 1);
  digests.push_back(campaign.preamble());

  const uint64_t limit = opt.repro ? opt.repro_iter + 1 : opt.iters;
  for (uint64_t i = 0; i < limit; ++i) {
    const uint64_t before = res.findings.size();
    const uint64_t h = campaign.iteration(i);
    if (digests.size() <= opt.replay_prefix) digests.push_back(h);
    for (size_t f = before; f < res.findings.size(); ++f) {
      res.findings[f].iter = i;
    }
    ++res.iterations_run;
    if (opt.max_seconds > 0 && (i & 0xff) == 0xff) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (elapsed > opt.max_seconds) break;
    }
  }
  campaign.scan_exports();
  res.keys_tracked = campaign.keys_tracked();
  res.keys_skipped = campaign.keys_skipped();
  res.payloads_scanned = campaign.payloads_scanned();
#if TENET_TELEMETRY_ENABLED
  // The hostile campaign drove frames straight through the event-emitting
  // handlers; a wedged ring (broken seq ordering, eviction arithmetic,
  // per-type totals) is a finding, not silent skew.
  res.fleet_events = telemetry::event_log().total();
  if (!telemetry::event_log().consistent()) {
    res.findings.push_back(Finding{
        0, "events", "fleet-event ring inconsistent after hostile campaign"});
  }
#endif

  // Replay determinism check: a fresh campaign over the digest prefix must
  // reproduce it bit-for-bit. (Findings from the replay run are folded
  // into a scratch list — they are duplicates by construction.)
  if (!opt.repro) {
    Coverage replay_cov;
    std::vector<Finding> replay_findings;
    Campaign replay(opt, replay_cov, replay_findings);
    if (replay.preamble() != digests[0]) res.replay_ok = false;
    const uint64_t prefix =
        std::min<uint64_t>(res.iterations_run, digests.size() - 1);
    for (uint64_t i = 0; i < prefix && res.replay_ok; ++i) {
      if (replay.iteration(i) != digests[i + 1]) {
        res.replay_ok = false;
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "replay digest diverged at iteration %" PRIu64, i);
        res.findings.push_back(Finding{i, "replay", buf});
      }
    }
  }

  res.coverage_missing = res.coverage.missing();
  res.coverage_ok = res.coverage_missing.empty();
  res.elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void write_corpus(const Options& opt, const RunResult& res) {
  if (opt.corpus_dir.empty() || res.findings.empty()) return;
  std::filesystem::create_directories(opt.corpus_dir);
  for (const Finding& f : res.findings) {
    char name[128];
    std::snprintf(name, sizeof name, "fail_%" PRIu64 "_%" PRIu64 ".txt",
                  opt.seed, f.iter);
    std::ofstream out(std::filesystem::path(opt.corpus_dir) / name);
    out << opt.seed << " " << f.iter << " " << f.target << " "
        << f.description << "\n"
        << "# repro: boundary_fuzz --seed " << opt.seed << " --repro "
        << opt.seed << ":" << f.iter << (opt.taint ? " --taint" : "")
        << (opt.inject_leak ? " --inject-leak" : "") << "\n";
  }
}

/// Replays every failing seed recorded in the corpus before the main
/// campaign: regressions caught by an earlier nightly stay caught.
int replay_corpus(const Options& opt) {
  if (opt.corpus_dir.empty() ||
      !std::filesystem::exists(opt.corpus_dir)) {
    return 0;
  }
  int still_failing = 0;
  std::vector<std::filesystem::path> entries;
  for (const auto& entry :
       std::filesystem::directory_iterator(opt.corpus_dir)) {
    if (entry.path().filename().string().rfind("fail_", 0) == 0) {
      entries.push_back(entry.path());
    }
  }
  std::sort(entries.begin(), entries.end());
  for (const auto& path : entries) {
    std::ifstream in(path);
    uint64_t seed = 0, iter = 0;
    if (!(in >> seed >> iter)) continue;
    Options ropt = opt;
    ropt.seed = seed;
    ropt.repro = true;
    ropt.repro_iter = iter;
    const RunResult r = run_campaign(ropt);
    bool failing = false;
    for (const Finding& f : r.findings) {
      if (f.iter == iter) failing = true;
    }
    std::fprintf(stderr, "corpus %s: %s\n", path.filename().c_str(),
                 failing ? "STILL FAILING" : "fixed");
    if (failing) ++still_failing;
  }
  return still_failing;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: boundary_fuzz [--seed N] [--iters N] [--max-seconds S]\n"
      "                     [--corpus-dir DIR] [--repro SEED:ITER] [--json]\n"
      "                     [--taint] [--inject-leak]\n");
  return 2;
}

}  // namespace
}  // namespace tenet

int main(int argc, char** argv) {
  using namespace tenet;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = next();
      if (!v) return usage();
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--iters") {
      const char* v = next();
      if (!v) return usage();
      opt.iters = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-seconds") {
      const char* v = next();
      if (!v) return usage();
      opt.max_seconds = std::strtod(v, nullptr);
    } else if (arg == "--corpus-dir") {
      const char* v = next();
      if (!v) return usage();
      opt.corpus_dir = v;
    } else if (arg == "--repro") {
      const char* v = next();
      if (!v) return usage();
      uint64_t seed = 0, iter = 0;
      if (std::sscanf(v, "%" PRIu64 ":%" PRIu64, &seed, &iter) != 2) {
        return usage();
      }
      opt.seed = seed;
      opt.repro = true;
      opt.repro_iter = iter;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--taint") {
      opt.taint = true;
    } else if (arg == "--inject-leak") {
      opt.taint = true;  // the leak check is a taint-mode self-test
      opt.inject_leak = true;
    } else {
      return usage();
    }
  }

  // Live instrumentation on for every campaign: the event-path coverage
  // assertion reads the global fleet-event ring, and taint mode scans the
  // populated telemetry/trace exports. Campaign digests fold only
  // boundary-call results, so this does not perturb replay determinism.
  telemetry::set_enabled(true);

  const int corpus_failures = opt.repro ? 0 : replay_corpus(opt);
  const RunResult res = run_campaign(opt);

  // With --inject-leak the deliberately leaky build MUST be caught; zero
  // taint findings means the detector is broken.
  bool leak_check_ok = true;
  size_t taint_findings = 0;
  for (const Finding& f : res.findings) {
    if (f.target == "taint") ++taint_findings;
  }
  if (opt.inject_leak && taint_findings == 0) leak_check_ok = false;

  const size_t real_findings =
      opt.inject_leak ? res.findings.size() - taint_findings
                      : res.findings.size();
  const bool ok = res.replay_ok && res.coverage_ok && leak_check_ok &&
                  real_findings == 0 && corpus_failures == 0;

  if (!opt.inject_leak) write_corpus(opt, res);

  if (opt.json) {
    std::printf("{\n  \"seed\": %" PRIu64 ",\n  \"iterations\": %" PRIu64
                ",\n  \"elapsed_seconds\": %.3f,\n",
                opt.seed, res.iterations_run, res.elapsed);
    std::printf("  \"replay_ok\": %s,\n  \"coverage_ok\": %s,\n",
                res.replay_ok ? "true" : "false",
                res.coverage_ok ? "true" : "false");
    std::printf("  \"ecalls_covered\": %zu,\n  \"ocalls_covered\": %zu,\n",
                res.coverage.ecalls.size(), res.coverage.ocalls.size());
    std::printf("  \"epc_steps_covered\": %zu,\n", res.coverage.epc.size());
    std::printf("  \"fleet_events\": %" PRIu64 ",\n", res.fleet_events);
    std::printf("  \"taint\": {\"enabled\": %s, \"keys_tracked\": %" PRIu64
                ", \"keys_beyond_cap\": %" PRIu64
                ", \"payloads_scanned\": %" PRIu64
                ", \"hits\": %zu},\n",
                opt.taint ? "true" : "false", res.keys_tracked,
                res.keys_skipped, res.payloads_scanned, taint_findings);
    std::printf("  \"leak_check_ok\": %s,\n", leak_check_ok ? "true" : "false");
    std::printf("  \"findings\": [");
    for (size_t i = 0; i < res.findings.size(); ++i) {
      const Finding& f = res.findings[i];
      std::printf("%s\n    {\"iter\": %" PRIu64
                  ", \"target\": \"%s\", \"description\": \"%s\"}",
                  i ? "," : "", f.iter, json_escape(f.target).c_str(),
                  json_escape(f.description).c_str());
    }
    std::printf("%s],\n  \"ok\": %s\n}\n", res.findings.empty() ? "" : "\n  ",
                ok ? "true" : "false");
  } else {
    std::printf("boundary_fuzz: seed=%" PRIu64 " iterations=%" PRIu64
                " elapsed=%.2fs\n",
                opt.seed, res.iterations_run, res.elapsed);
    std::printf("  replay: %s\n", res.replay_ok ? "byte-identical" : "DIVERGED");
    std::printf("  coverage: %zu ecall fns, %zu ocall codes, %zu EPC steps, "
                "%" PRIu64 " fleet events%s\n",
                res.coverage.ecalls.size(), res.coverage.ocalls.size(),
                res.coverage.epc.size(), res.fleet_events,
                res.coverage_ok ? "" : " — INCOMPLETE:");
    for (const std::string& m : res.coverage_missing) {
      std::printf("    missing %s\n", m.c_str());
    }
    if (opt.taint) {
      std::printf("  taint: %" PRIu64 " keys tracked (%" PRIu64
                  " beyond cap), %" PRIu64 " payloads scanned, %zu hits\n",
                  res.keys_tracked, res.keys_skipped, res.payloads_scanned,
                  taint_findings);
      if (opt.inject_leak) {
        std::printf("  leak self-check: %s\n",
                    leak_check_ok ? "detector caught the injected leak"
                                  : "DETECTOR MISSED THE INJECTED LEAK");
      }
    }
    for (const Finding& f : res.findings) {
      // Under --inject-leak, taint hits are the expected positive-control
      // outcome, not failures — summarized above instead of listed.
      if (opt.inject_leak && f.target == "taint") continue;
      std::printf("  FINDING iter=%" PRIu64 " [%s] %s\n    repro: "
                  "boundary_fuzz --seed %" PRIu64 " --repro %" PRIu64
                  ":%" PRIu64 "%s\n",
                  f.iter, f.target.c_str(), f.description.c_str(), opt.seed,
                  opt.seed, f.iter, opt.taint ? " --taint" : "");
    }
    std::printf("boundary_fuzz: %s\n", ok ? "OK" : "FAILED");
  }
  return ok ? 0 : 1;
}
