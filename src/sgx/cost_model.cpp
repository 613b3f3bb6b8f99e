#include "sgx/cost_model.h"

#include "sgx/switchless.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace tenet::sgx {

#if TENET_TELEMETRY_ENABLED
namespace {

// Mirrors crypto work into the tracer's per-span crypto column as it
// happens, converting with CostModel::kConstants — the constants every
// model uses, so span cost deltas sum exactly to the models'
// normal_instructions() (cross-checked in tests). Registered once
// at static-init time; the observer only fires while a work sink is
// installed (i.e. while some CostScope is accounting) and is a no-op when
// telemetry is disabled.
void mirror_work_to_tracer(crypto::work::Kind kind, uint64_t n) {
  if (!telemetry::enabled()) return;
  const CostConstants& k = CostModel::kConstants;
  uint64_t per = 0;
  switch (kind) {
    case crypto::work::Kind::kSha256Block: per = k.per_sha256_block; break;
    case crypto::work::Kind::kAesBlock: per = k.per_aes_block; break;
    case crypto::work::Kind::kAesKeySchedule:
      per = k.per_aes_key_schedule;
      break;
    case crypto::work::Kind::kChachaBlock: per = k.per_chacha_block; break;
    case crypto::work::Kind::kLimbMuladd: per = k.per_limb_muladd; break;
    case crypto::work::Kind::kByteMoved: per = k.per_byte_moved; break;
    case crypto::work::Kind::kAluOp: per = k.per_alu_op; break;
  }
  telemetry::tracer().charge(telemetry::CostKind::kCrypto, per * n);
}

[[maybe_unused]] const bool g_work_observer_installed = [] {
  crypto::work::set_observer(&mirror_work_to_tracer);
  return true;
}();

}  // namespace
#endif  // TENET_TELEMETRY_ENABLED

const char* to_string(UserInstr i) {
  switch (i) {
    case UserInstr::kEEnter: return "EENTER";
    case UserInstr::kEExit: return "EEXIT";
    case UserInstr::kEResume: return "ERESUME";
    case UserInstr::kEGetKey: return "EGETKEY";
    case UserInstr::kEReport: return "EREPORT";
    case UserInstr::kEAccept: return "EACCEPT";
  }
  return "?";
}

const char* to_string(PrivInstr i) {
  switch (i) {
    case PrivInstr::kECreate: return "ECREATE";
    case PrivInstr::kEAdd: return "EADD";
    case PrivInstr::kEExtend: return "EEXTEND";
    case PrivInstr::kEInit: return "EINIT";
    case PrivInstr::kEAug: return "EAUG";
    case PrivInstr::kERemove: return "EREMOVE";
  }
  return "?";
}

void CostModel::charge_user(UserInstr instr, uint64_t count) {
  sgx_user_ += count;
  user_counts_[static_cast<size_t>(instr)] += count;
  // One literal per case: TENET_COUNT caches its counter per call site.
  switch (instr) {
    case UserInstr::kEEnter: TENET_COUNT("sgx.eenter", count); break;
    case UserInstr::kEExit: TENET_COUNT("sgx.eexit", count); break;
    case UserInstr::kEResume: TENET_COUNT("sgx.eresume", count); break;
    case UserInstr::kEGetKey: TENET_COUNT("sgx.egetkey", count); break;
    case UserInstr::kEReport: TENET_COUNT("sgx.ereport", count); break;
    case UserInstr::kEAccept: break;
  }
  TENET_TRACE_COST(telemetry::CostKind::kSgxUser, count);
  if (instr == UserInstr::kEEnter || instr == UserInstr::kEExit ||
      instr == UserInstr::kEResume) {
    TENET_TRACE_COST(telemetry::CostKind::kTransition, count);
  }
}

void CostModel::charge_priv(PrivInstr instr, uint64_t count) {
  sgx_priv_ += count;
  priv_counts_[static_cast<size_t>(instr)] += count;
  switch (instr) {
    case PrivInstr::kEAdd: TENET_COUNT("sgx.eadd_pages", count); break;
    case PrivInstr::kEAug: TENET_COUNT("sgx.eaug", count); break;
    default: break;  // launch and teardown steps export no counter
  }
  TENET_TRACE_COST(telemetry::CostKind::kSgxPriv, count);
}

void CostModel::charge_normal(uint64_t instructions) {
  normal_direct_ += instructions;
  TENET_TRACE_COST(telemetry::CostKind::kNormal, instructions);
}

void CostModel::charge_boundary_bytes(uint64_t bytes) {
  TENET_COUNT("sgx.boundary_bytes", bytes);
  const uint64_t instructions =
      (bytes + kConstants.boundary_bytes_per_instr - 1) /
      kConstants.boundary_bytes_per_instr;
  normal_direct_ += instructions;
  TENET_TRACE_COST(telemetry::CostKind::kNormal, instructions);
}

void CostModel::charge_context_switch() {
  normal_direct_ += kConstants.per_context_switch;
  TENET_TRACE_COST(telemetry::CostKind::kNormal,
                   kConstants.per_context_switch);
}

void CostModel::charge_page_zero(uint64_t pages) {
  normal_direct_ += pages * kConstants.per_page_zero;
  TENET_TRACE_COST(telemetry::CostKind::kPaging,
                   pages * kConstants.per_page_zero);
}

void CostModel::charge_ocall_dispatch() {
  normal_direct_ += kConstants.per_ocall_dispatch;
  TENET_TRACE_COST(telemetry::CostKind::kNormal,
                   kConstants.per_ocall_dispatch);
}

void CostModel::charge_ring_slot_write() {
  normal_direct_ += kConstants.per_ring_slot_write;
  TENET_TRACE_COST(telemetry::CostKind::kNormal,
                   kConstants.per_ring_slot_write);
}

void CostModel::charge_switchless_poll() {
  normal_direct_ += kConstants.per_switchless_poll;
  TENET_TRACE_COST(telemetry::CostKind::kNormal,
                   kConstants.per_switchless_poll);
}

void CostModel::charge_worker_wakeup() {
  TENET_COUNT("sgx.switchless.wakeups");
  normal_direct_ += kConstants.per_worker_wakeup;
  TENET_TRACE_COST(telemetry::CostKind::kNormal,
                   kConstants.per_worker_wakeup);
}

void CostModel::note_switchless_hit() {
  ++switchless_hits_;
  TENET_COUNT("sgx.switchless.hits");
}

void CostModel::note_switchless_fallback(SwitchlessOutcome outcome) {
  ++switchless_fallbacks_;
  if (outcome == SwitchlessOutcome::kFallbackAsleep) {
    TENET_COUNT("sgx.switchless.fallbacks_asleep");
  } else {
    TENET_COUNT("sgx.switchless.fallbacks_full");
  }
}

uint64_t CostModel::normal_instructions() const {
  return normal_direct_ + work_.sha256_blocks * kConstants.per_sha256_block +
         work_.aes_blocks * kConstants.per_aes_block +
         work_.aes_key_schedules * kConstants.per_aes_key_schedule +
         work_.chacha_blocks * kConstants.per_chacha_block +
         work_.limb_muladds * kConstants.per_limb_muladd +
         work_.bytes_moved * kConstants.per_byte_moved +
         work_.alu_ops * kConstants.per_alu_op;
}

double CostModel::cycles() const {
  return static_cast<double>(sgx_user_ * kConstants.cycles_per_sgx_instr) +
         static_cast<double>(normal_instructions()) / kConstants.ipc;
}

void CostModel::reset() {
  sgx_user_ = 0;
  sgx_priv_ = 0;
  for (uint64_t& c : user_counts_) c = 0;
  for (uint64_t& c : priv_counts_) c = 0;
  normal_direct_ = 0;
  switchless_hits_ = 0;
  switchless_fallbacks_ = 0;
  work_ = crypto::WorkCounters{};
}

CostModel::Snapshot CostModel::snapshot() const {
  return {sgx_user_,      sgx_priv_,         normal_instructions(),
          transitions(),  switchless_hits_,  switchless_fallbacks_};
}

CostModel::Snapshot CostModel::delta(const Snapshot& since) const {
  const Snapshot now = snapshot();
  return {now.sgx_user - since.sgx_user,
          now.sgx_priv - since.sgx_priv,
          now.normal - since.normal,
          now.transitions - since.transitions,
          now.switchless_hits - since.switchless_hits,
          now.switchless_fallbacks - since.switchless_fallbacks};
}

double CostModel::cycles_of(const Snapshot& d) const {
  return static_cast<double>(d.sgx_user * kConstants.cycles_per_sgx_instr) +
         static_cast<double>(d.normal) / kConstants.ipc;
}

}  // namespace tenet::sgx
