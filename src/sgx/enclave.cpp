#include "sgx/enclave.h"

#include <cstdio>

#include "crypto/hmac.h"
#include "sgx/platform.h"
#include "sgx/taint.h"
#include "telemetry/trace.h"

namespace tenet::sgx {

namespace {
/// Async ocall handlers return empty by convention; a non-empty result is
/// the untrusted side reporting a failure. Surface it as a typed fault
/// (and count it) instead of dropping it — the silent-swallow fallback was
/// itself a boundary-misuse bug.
void check_async_result(uint32_t code, const crypto::Bytes& result) {
  if (result.empty()) return;
  TENET_COUNT("sgx.ocall.async_errors");
  char codebuf[16];
  std::snprintf(codebuf, sizeof codebuf, "0x%x", code);
  throw OcallError(code, std::string("async ocall ") + codebuf +
                             " handler reported: " +
                             std::string(result.begin(), result.end()));
}
}

// Default for EnclaveEnv subclasses without a switchless fast path (test
// fakes, harnesses): a full synchronous ocall whose result is checked
// under the same non-empty-is-error convention as the real runtime.
void EnclaveEnv::ocall_async(uint32_t code, crypto::BytesView payload) {
  check_async_result(code, ocall(code, payload));
}

/// EnclaveEnv implementation bound to one in-flight ecall.
class EnvImpl final : public EnclaveEnv {
 public:
  explicit EnvImpl(Enclave& enclave) : e_(enclave) {}

  crypto::Bytes ocall(uint32_t code, crypto::BytesView payload) override {
    TENET_SPAN("sgx", "ocall");
    TENET_COUNT("sgx.ocall");
    if (switchless_request(payload)) {
      // Ring round trip: spin until the worker fills the response slot.
      // The result still crosses the boundary as a byte copy; no SGX
      // instructions execute.
      crypto::Bytes result = host_execute(code, payload);
      e_.cost_.charge_switchless_poll();
      e_.cost_.charge_boundary_bytes(result.size());
      return result;
    }
    return sync_ocall(code, payload);
  }

  void ocall_async(uint32_t code, crypto::BytesView payload) override {
    TENET_COUNT("sgx.ocall");
    if (switchless_request(payload)) {
      // Deferred: the descriptor (and payload copy) sits in the ring
      // until the worker drains it — no response slot to poll.
      e_.ocall_ring_->push(code, payload);
      return;
    }
    // A ring-full fallback drains the backlog too: the synchronous
    // transition proves the untrusted side is running (host_execute
    // flushes before dispatching).
    check_async_result(code, sync_ocall(code, payload));
  }

  void ocall_async(uint32_t code, crypto::Bytes&& payload) override {
    TENET_COUNT("sgx.ocall");
    if (switchless_request(payload)) {
      // Same accounting as the copying form — the bytes still cross the
      // boundary; only the slot copy disappears.
      e_.ocall_ring_->push(code, std::move(payload));
      return;
    }
    check_async_result(code, sync_ocall(code, payload));
  }

  Report ereport(const Measurement& target, const ReportData& data) override {
    e_.cost_.charge_user(UserInstr::kEReport);
    // The MAC below is computed by the EREPORT microcode, not software:
    // keep it out of the work meter.
    crypto::work::Scope hw(nullptr);
    Report r;
    r.mr_enclave = e_.measurement_;
    r.mr_signer = e_.signer_;
    r.target = target;
    r.product_id = e_.product_id_;
    r.security_version = e_.security_version_;
    r.platform = e_.platform_.id();
    r.report_data = data;
    r.authenticate(e_.platform_.derive_report_key(target));
    return r;
  }

  crypto::Bytes report_key() override {
    e_.cost_.charge_user(UserInstr::kEGetKey);
    crypto::work::Scope hw(nullptr);
    return e_.platform_.derive_report_key(e_.measurement_);
  }

  crypto::Bytes seal_key(crypto::BytesView label) override {
    e_.cost_.charge_user(UserInstr::kEGetKey);
    crypto::work::Scope hw(nullptr);
    return e_.platform_.derive_seal_key(e_.measurement_, label);
  }

  Quote get_quote(const ReportData& data) override {
    TENET_SPAN("sgx", "get_quote");
    // Figure 1, messages 2-4: EREPORT targeted at the QE, hand the report
    // to the host (EEXIT), host calls into the QE, result returns through
    // ERESUME. quote_via_qe() charges the QE's own model for its half.
    const Report report = ereport(Platform::quoting_enclave_measurement(), data);

    CostModel& c = e_.cost_;
    c.charge_user(UserInstr::kEExit);
    c.charge_context_switch();
    c.charge_boundary_bytes(report.serialize().size());

    // The host runs the QE hand-off: deferred switchless requests drain
    // before it, as they would before any synchronous transition.
    e_.flush_switchless();
    auto quote = e_.platform_.quote_via_qe(report);

    c.charge_user(UserInstr::kEResume);
    c.charge_context_switch();
    if (e_.ocall_ring_) e_.ocall_ring_->note_sync_transition();
    if (!quote.has_value()) {
      throw HardwareFault("quoting enclave rejected report");
    }
    c.charge_boundary_bytes(quote->serialize().size());
    return *quote;
  }

  crypto::Drbg& rng() override { return e_.rng_; }

  void heap_alloc(size_t bytes) override {
    TENET_HISTOGRAM("sgx.heap_alloc_bytes", bytes);
    e_.heap_bytes_ += bytes;
    const size_t needed =
        (e_.heap_bytes_ + kPageSize - 1) / kPageSize;
    while (e_.heap_pages_ < needed) {
      CostModel& c = e_.cost_;
      // SGX1 semantics (what OpenSGX emulates, and what the paper ran on):
      // heap pages were added at launch, so growing live state costs no
      // SGX instructions — it is all software allocator work inside the
      // enclave. This is the "dynamic memory allocation" overhead Table 4
      // names. (The privileged EAUG charge keeps the EPC book-keeping
      // honest; it is excluded from steady-state tables like all launch-
      // class operations.)
      c.charge_priv(PrivInstr::kEAug);
      c.charge_page_zero(1);
      e_.platform_.epc().add_page(e_.id_, kHeapBaseVaddr + e_.heap_pages_, {});
      ++e_.heap_pages_;
    }
  }

  const Measurement& self_measurement() const override {
    return e_.measurement_;
  }
  const SignerId& self_signer() const override { return e_.signer_; }
  EnclaveId self_id() const override { return e_.id_; }
  CostModel& cost() override { return e_.cost_; }
  Platform& platform() override { return e_.platform_; }

 private:
  /// Offers one ocall to the switchless ring. On a hit, charges the
  /// request half (descriptor write + payload copy) and returns true; the
  /// caller then completes the call through the ring. Otherwise (no ring,
  /// or a fallback, which is noted) returns false.
  bool switchless_request(crypto::BytesView payload) {
    if (!e_.ocall_ring_) return false;
    const SwitchlessOutcome outcome = e_.ocall_ring_->begin_call();
    if (outcome != SwitchlessOutcome::kHit) {
      e_.note_switchless_fallback(outcome);
      return false;
    }
    CostModel& c = e_.cost_;
    c.charge_ring_slot_write();
    c.charge_boundary_bytes(payload.size());
    c.note_switchless_hit();
    return true;
  }

  /// Untrusted-side handler dispatch shared by the synchronous path and
  /// the switchless hit path. Drains the deferred backlog first so
  /// host-visible effects keep the order a synchronous run would produce.
  crypto::Bytes host_execute(uint32_t code, crypto::BytesView payload) {
    e_.flush_switchless();
    return e_.dispatch_to_host(code, payload);
  }

  /// The full EEXIT/ERESUME transition — the only ocall path when
  /// switchless mode is off, and the fallback when it is on.
  crypto::Bytes sync_ocall(uint32_t code, crypto::BytesView payload) {
    CostModel& c = e_.cost_;
    c.charge_user(UserInstr::kEExit);
    c.charge_context_switch();
    c.charge_boundary_bytes(payload.size());

    crypto::Bytes result = host_execute(code, payload);

    c.charge_user(UserInstr::kEResume);
    c.charge_context_switch();
    c.charge_boundary_bytes(result.size());
    // One boundary crossing elapsed: tick the switchless idle clock.
    if (e_.ocall_ring_) e_.ocall_ring_->note_sync_transition();
    return result;
  }

  Enclave& e_;
};

Enclave::Enclave(Platform& platform, EnclaveId id, const SigStruct& sigstruct,
                 const EnclaveImage& image)
    : platform_(platform),
      id_(id),
      name_(image.name),
      measurement_(image.measure()),
      signer_(sigstruct.mr_signer()),
      product_id_(sigstruct.product_id),
      security_version_(sigstruct.security_version),
      image_pages_(image.page_count()),
      rng_(crypto::Drbg::from_label(platform.id() * 1'000'000 + id,
                                    "tenet.enclave.rdrand")) {
  // Launch is a one-time cost the paper excludes from its steady-state
  // tables ("we exclude the cost launching an SGX application"); keep its
  // crypto (measurement hashing, sigstruct verification) out of whatever
  // work meter the caller has installed. Launch page operations are still
  // visible through the privileged-instruction counter.
  crypto::work::Scope launch_scope(nullptr);
  TENET_SPAN("sgx", "enclave_launch");

  // EINIT preconditions: vendor signature verifies and covers exactly this
  // image's measurement.
  if (!Vendor::verify(sigstruct)) {
    throw HardwareFault("EINIT: sigstruct signature invalid");
  }
  if (sigstruct.mr_enclave != measurement_) {
    throw HardwareFault("EINIT: sigstruct does not match measurement");
  }

  // ECREATE + (EADD + 16x EEXTEND) per page + EINIT.
  cost_.charge_priv(PrivInstr::kECreate);
  crypto::Bytes padded = image.code;
  padded.resize(image_pages_ * kPageSize, 0);
  for (size_t page = 0; page < image_pages_; ++page) {
    cost_.charge_priv(PrivInstr::kEAdd);
    cost_.charge_priv(PrivInstr::kEExtend, kPageSize / kMeasureChunk);
    platform_.epc().add_page(
        id_, page,
        crypto::BytesView(padded.data() + page * kPageSize, kPageSize));
  }
  cost_.charge_priv(PrivInstr::kEInit);

  app_ = image.factory();
  if (!app_) throw HardwareFault("EINIT: image has no app factory");
  TENET_COUNT("sgx.enclave_launches");
}

Enclave::~Enclave() {
  if (alive_) platform_.epc().remove_enclave(id_);
}

crypto::Bytes Enclave::ecall(uint32_t fn, crypto::BytesView arg) {
  if (!alive_) throw HardwareFault("EENTER: enclave has been removed");
  if (in_call_) throw HardwareFault("EENTER: TCS already in use");
  TENET_SPAN("sgx", "ecall");
  // MEE integrity semantics: tampered EPC pages fault on next access.
  // (Identical in both transition modes — a switchless ecall still runs
  // on EPC pages, so tampering faults exactly as a synchronous one would.)
  platform_.epc().verify_owner_pages(id_);

  bool switchless = false;
  if (ecall_ring_) {
    const SwitchlessOutcome outcome = ecall_ring_->begin_call();
    if (outcome == SwitchlessOutcome::kHit) {
      switchless = true;
    } else {
      note_switchless_fallback(outcome);
    }
  }

  TENET_HISTOGRAM("sgx.ecall_arg_bytes", arg.size());
  if (switchless) {
    // The untrusted caller writes the request descriptor and polls for
    // the result slot; the in-enclave worker pays the mirror-image cost.
    // No EENTER executes.
    platform_.host_cost().charge_ring_slot_write();
    platform_.host_cost().charge_switchless_poll();
    cost_.charge_ring_slot_write();
    cost_.charge_switchless_poll();
    cost_.charge_boundary_bytes(arg.size());
    cost_.note_switchless_hit();
  } else {
    cost_.charge_user(UserInstr::kEEnter);
    cost_.charge_boundary_bytes(arg.size());
  }

  in_call_ = true;
  EnvImpl env(*this);
  crypto::Bytes result;
  {
    CostScope scope(cost_);
    try {
      result = app_->handle_call(fn, arg, env);
    } catch (...) {
      in_call_ = false;
      // Deferred effects still happen-before the fault becomes visible
      // to the host.
      flush_switchless();
      // Asynchronous exit on fault: an in-enclave exception always
      // leaves through AEX, however the call was submitted.
      TENET_COUNT("sgx.aex");
      cost_.charge_user(UserInstr::kEExit);
      cost_.charge_context_switch();
      throw;
    }
  }
  in_call_ = false;

  // The untrusted side regains control as soon as the result is
  // observable: the deferred backlog drains now, preserving the order a
  // synchronous run would produce.
  flush_switchless();

  if (switchless) {
    cost_.charge_ring_slot_write();
    cost_.charge_boundary_bytes(result.size());
  } else {
    cost_.charge_user(UserInstr::kEExit);
    cost_.charge_boundary_bytes(result.size());
    // One boundary crossing elapsed in this enclave's domain: tick both
    // rings' deterministic idle clocks.
    if (ecall_ring_) ecall_ring_->note_sync_transition();
    if (ocall_ring_) ocall_ring_->note_sync_transition();
  }
  return result;
}

void Enclave::enable_switchless(const SwitchlessConfig& config) {
  ocall_ring_ = std::make_unique<SwitchlessRing>(
      config, "sgx.switchless.ocall_ring_occupancy");
  ecall_ring_ = std::make_unique<SwitchlessRing>(
      config, "sgx.switchless.ecall_ring_occupancy");
}

void Enclave::note_switchless_fallback(SwitchlessOutcome outcome) {
  cost_.note_switchless_fallback(outcome);
  // The synchronous fallback doubles as the kick that unparks the worker;
  // the futex-style wakeup runs on the untrusted side.
  if (outcome == SwitchlessOutcome::kFallbackAsleep) {
    platform_.host_cost().charge_worker_wakeup();
  }
}

void Enclave::flush_switchless() {
  if (!ocall_ring_) return;
  ocall_ring_->drain([&](uint32_t code, const crypto::Bytes& payload) {
    // The polling worker runs on the untrusted side. Same convention as
    // the fallback path: a deferred async ocall whose handler reports an
    // error must fault identically switchless on/off.
    check_async_result(code, dispatch_to_host(code, payload));
  });
}

crypto::Bytes Enclave::dispatch_to_host(uint32_t code,
                                        crypto::BytesView payload) {
  platform_.host_cost().charge_ocall_dispatch();
  // Untrusted side: crypto work (if any) belongs to the host model.
  crypto::work::Scope host_scope(&platform_.host_cost().work());
  if (!ocall_) {
    throw HardwareFault("ocall with no untrusted handler installed");
  }
  taint::note_ocall(code, payload);
  return ocall_(code, payload);
}

void Enclave::destroy() {
  if (!alive_) return;
  TENET_COUNT("sgx.enclave_destroys");
  cost_.charge_priv(PrivInstr::kERemove,
                    image_pages_ + heap_pages_);
  platform_.epc().remove_enclave(id_);
  alive_ = false;
}

}  // namespace tenet::sgx
