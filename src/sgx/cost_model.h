// Instruction-accounting cost model — the reproduction's measurement rig.
//
// The paper (§5) characterizes SGX overhead in two currencies measured by
// the OpenSGX emulator:
//   * SGX(U) instructions — user-mode SGX instructions (EENTER, EEXIT,
//     ERESUME, EREPORT, EGETKEY, ...), each assumed to cost 10K cycles;
//   * normal instructions — everything else, converted to cycles with the
//     natively-measured IPC of 1.8.
// We reproduce the same two counters. SGX instructions are counted exactly
// (the emulator executes them). Normal instructions are charged at the
// primitive level: crypto reports blocks/limb-ops through the work meter
// (crypto/work.h) and the SGX runtime charges boundary copies, context
// switches and page operations directly, using the calibrated constants
// below.
//
// cycles = kCyclesPerSgxInstr * sgx_user + normal / kIpc
// (The paper's footnote 6 writes "IPC x normal"; instructions divided by
// instructions-per-cycle is the dimensionally meaningful form — see
// DESIGN.md §2 and EXPERIMENTS.md.)
#pragma once

#include <cstdint>
#include <string>

#include "crypto/work.h"

namespace tenet::sgx {

/// User-mode (ring-3) SGX instructions — the SGX(U) column of the tables.
enum class UserInstr : uint8_t {
  kEEnter,
  kEExit,
  kEResume,
  kEGetKey,
  kEReport,
  kEAccept,
};

/// Privileged SGX instructions — executed during enclave launch only; the
/// paper excludes launch cost from its steady-state tables, so these are
/// tracked separately.
enum class PrivInstr : uint8_t {
  kECreate,
  kEAdd,
  kEExtend,
  kEInit,
  kEAug,
  kERemove,
};

/// Why a switchless-eligible call was or was not served through the ring
/// (defined in sgx/switchless.h).
enum class SwitchlessOutcome : uint8_t;

const char* to_string(UserInstr i);
const char* to_string(PrivInstr i);

/// Calibrated conversion constants (2015-era x86 software implementations;
/// see DESIGN.md §3 for the calibration rationale). Every model uses the one
/// instance CostModel::kConstants.
struct CostConstants {
  uint64_t cycles_per_sgx_instr = 10'000;  // paper's assumption
  double ipc = 1.8;                        // paper's measured IPC

  // Normal-instruction cost of one unit of primitive work.
  uint64_t per_sha256_block = 1'000;   // ~15 cyc/B softimpl
  uint64_t per_aes_block = 300;        // ~20 cyc/B software AES
  uint64_t per_aes_key_schedule = 500;
  uint64_t per_chacha_block = 400;
  uint64_t per_limb_muladd = 4;
  uint64_t per_byte_moved = 1;
  uint64_t per_alu_op = 1;            // generic application compute step

  // Enclave-boundary effects. Copies are SIMD-ish (several bytes per
  // instruction); the 10K-cycle SGX-instruction assumption already covers
  // most of the exit/entry latency, so the *normal-instruction* side of a
  // context switch is just trap handling and state bookkeeping.
  uint64_t boundary_bytes_per_instr = 8;  // EPC <-> untrusted memcpy rate
  uint64_t per_context_switch = 400;      // kernel-visible switch overhead
  uint64_t per_page_zero = 25'000;  // in-enclave allocator page setup:
                                    // scrubbing + bookkeeping + the
                                    // OpenSGX-style software paths the
                                    // paper attributes "dynamic memory
                                    // allocation" overhead to (SGX1 has
                                    // no EAUG/EACCEPT; heap mgmt is all
                                    // normal instructions)
  uint64_t per_ocall_dispatch = 200;  // untrusted-side trampoline

  // Switchless-call accounting (the second transition mode — see
  // src/sgx/switchless.h and DESIGN.md §10). A switchless hit replaces the
  // 2 x 10K-cycle EEXIT/ERESUME pair (plus two context switches) with:
  uint64_t per_ring_slot_write = 80;  // descriptor write + cache-line
                                      // transfer to the other core
  uint64_t per_switchless_poll = 120; // caller/worker spin until the
                                      // response slot fills
  uint64_t per_worker_wakeup = 3'000; // futex-style kick when a parked
                                      // worker must be woken (charged on
                                      // the fallback that wakes it)
};

/// One accounting domain. Each emulated Platform owns one; benches also
/// create standalone models for native (non-SGX) baselines.
///
/// The charge/note methods are also the only writers of the sgx.* telemetry
/// counters for the events they tally (DESIGN.md §8 lists them), so a call
/// site that charges an event has counted it.
class CostModel {
 public:
  static constexpr CostConstants kConstants{};

  void charge_user(UserInstr instr, uint64_t count = 1);
  void charge_priv(PrivInstr instr, uint64_t count = 1);
  /// Directly observed normal instructions (marshalling loops etc.).
  void charge_normal(uint64_t instructions);
  /// Bytes copied across the enclave boundary (EPC <-> untrusted memory).
  void charge_boundary_bytes(uint64_t bytes);
  /// One enclave exit/resume context switch (beyond the instruction cost).
  void charge_context_switch();
  void charge_page_zero(uint64_t pages);
  void charge_ocall_dispatch();

  // --- Switchless accounting mode (DESIGN.md §10) ---
  /// One request/response descriptor written into the shared ring.
  void charge_ring_slot_write();
  /// One spin-wait until the other side fills the response slot.
  void charge_switchless_poll();
  /// Amortised cost of kicking a parked polling worker awake.
  void charge_worker_wakeup();
  /// Book-keeping (no instruction charge): a call was served through the
  /// ring / fell back to a full synchronous transition for the reason the
  /// ring's begin_call() returned.
  void note_switchless_hit();
  void note_switchless_fallback(SwitchlessOutcome outcome);

  [[nodiscard]] static const CostConstants& constants() { return kConstants; }
  [[nodiscard]] crypto::WorkCounters& work() { return work_; }

  /// SGX(U) instruction count (steady state tables).
  [[nodiscard]] uint64_t sgx_user_instructions() const { return sgx_user_; }
  /// Privileged instruction count (launch cost, reported separately).
  [[nodiscard]] uint64_t sgx_priv_instructions() const { return sgx_priv_; }
  /// Per-instruction breakdowns of the two totals above.
  [[nodiscard]] uint64_t user_count(UserInstr i) const {
    return user_counts_[static_cast<size_t>(i)];
  }
  [[nodiscard]] uint64_t priv_count(PrivInstr i) const {
    return priv_counts_[static_cast<size_t>(i)];
  }
  /// Normal instructions: direct charges + converted primitive work.
  [[nodiscard]] uint64_t normal_instructions() const;
  /// Estimated cycles per the paper's formula.
  [[nodiscard]] double cycles() const;

  /// Enclave boundary crossings actually executed: EENTER + EEXIT +
  /// ERESUME. This is the number switchless mode exists to shrink; the
  /// PR-4 bench gate compares it across modes at equal payload bytes.
  [[nodiscard]] uint64_t transitions() const {
    return user_count(UserInstr::kEEnter) + user_count(UserInstr::kEExit) +
           user_count(UserInstr::kEResume);
  }
  /// Calls served through the switchless ring (no transition executed).
  [[nodiscard]] uint64_t switchless_hits() const { return switchless_hits_; }
  /// Switchless-eligible calls that had to fall back to a synchronous
  /// transition (ring full or worker parked).
  [[nodiscard]] uint64_t switchless_fallbacks() const {
    return switchless_fallbacks_;
  }

  void reset();

  /// Point-in-time counter values, for measuring deltas around a phase.
  struct Snapshot {
    uint64_t sgx_user = 0;
    uint64_t sgx_priv = 0;
    uint64_t normal = 0;
    uint64_t transitions = 0;
    uint64_t switchless_hits = 0;
    uint64_t switchless_fallbacks = 0;

    /// Field-wise accumulation (platform totals across enclave domains).
    void add(const Snapshot& other) {
      sgx_user += other.sgx_user;
      sgx_priv += other.sgx_priv;
      normal += other.normal;
      transitions += other.transitions;
      switchless_hits += other.switchless_hits;
      switchless_fallbacks += other.switchless_fallbacks;
    }
  };
  [[nodiscard]] Snapshot snapshot() const;
  /// Counters accumulated since `since`.
  [[nodiscard]] Snapshot delta(const Snapshot& since) const;
  [[nodiscard]] double cycles_of(const Snapshot& d) const;

 private:
  uint64_t sgx_user_ = 0;
  uint64_t sgx_priv_ = 0;
  uint64_t user_counts_[6] = {};
  uint64_t priv_counts_[6] = {};
  uint64_t normal_direct_ = 0;
  uint64_t switchless_hits_ = 0;
  uint64_t switchless_fallbacks_ = 0;
  crypto::WorkCounters work_;
};

/// RAII scope that routes this thread's crypto work-meter output into a
/// cost model (and restores the previous sink on exit). Every entry into
/// emulated-enclave or accounted-native code opens one of these.
class CostScope {
 public:
  explicit CostScope(CostModel& model)
      : scope_(&model.work()) {}

 private:
  crypto::work::Scope scope_;
};

}  // namespace tenet::sgx
