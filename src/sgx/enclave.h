// Enclave runtime: trusted/untrusted boundary with instruction accounting.
//
// An Enclave hosts one EnclaveApp (the trusted code). The untrusted host
// drives it with ecall(); trusted code reaches back out with
// EnclaveEnv::ocall(). Every boundary crossing charges the enclave's cost
// model exactly the way the paper measures it on OpenSGX: EENTER/EEXIT/
// ERESUME as SGX(U) instructions, argument/result marshalling as boundary
// byte copies, plus a context-switch penalty per asynchronous exit.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "crypto/bytes.h"
#include "crypto/rng.h"
#include "sgx/cost_model.h"
#include "sgx/image.h"
#include "sgx/quote.h"
#include "sgx/report.h"
#include "sgx/switchless.h"
#include "sgx/types.h"

namespace tenet::sgx {

class Platform;
class Enclave;

/// Services available to trusted code while it executes inside the
/// enclave. All of them charge the enclave's cost model.
class EnclaveEnv {
 public:
  virtual ~EnclaveEnv() = default;

  /// Leaves the enclave (EEXIT), runs the host's ocall handler, re-enters
  /// (ERESUME). Payload and result are copied across the boundary.
  /// Iago-attack note (§6): return values come from untrusted code; the
  /// trusted caller must sanity-check them.
  virtual crypto::Bytes ocall(uint32_t code, crypto::BytesView payload) = 0;

  /// Fire-and-forget ocall: async handlers return an empty result by
  /// convention. When the enclave runs in switchless mode this queues a
  /// descriptor in the shared ring instead of paying an EEXIT/ERESUME
  /// pair; deferred requests execute in submission order before any other
  /// host-visible work, so application behaviour is identical either way.
  /// The default (and the fallback) is a full synchronous ocall. A
  /// non-empty handler result is a reported failure: it surfaces as a
  /// typed OcallError (counted in sgx.ocall.async_errors) instead of
  /// being silently swallowed.
  virtual void ocall_async(uint32_t code, crypto::BytesView payload);

  /// Move form of ocall_async: under switchless mode the buffer itself
  /// becomes the ring slot (the zero-copy record path seals straight into
  /// it), skipping the slot copy. Identical observable behaviour.
  virtual void ocall_async(uint32_t code, crypto::Bytes&& payload) {
    ocall_async(code, crypto::BytesView(payload));
  }

  /// EREPORT: produce a Report destined for `target` on this platform.
  virtual Report ereport(const Measurement& target,
                         const ReportData& data) = 0;

  /// EGETKEY(REPORT_KEY): this enclave's own report key, for verifying
  /// reports targeted at it.
  virtual crypto::Bytes report_key() = 0;

  /// EGETKEY(SEAL_KEY): sealing key bound to (platform, MRENCLAVE, label).
  virtual crypto::Bytes seal_key(crypto::BytesView label) = 0;

  /// Full local quoting flow (Figure 1 messages 2-4): EREPORT targeted at
  /// the quoting enclave, hand-off through the host, verification and
  /// signing inside the QE. Costs land on the respective enclaves' models.
  virtual Quote get_quote(const ReportData& data) = 0;

  /// In-enclave entropy (RDRAND-equivalent; unobservable by the host).
  virtual crypto::Drbg& rng() = 0;

  /// Trusted heap growth (EAUG/EACCEPT): call when allocating `bytes` of
  /// new in-enclave state. Charges page operations and the context switch
  /// the OS-assisted EAUG path incurs; this is the "dynamic memory
  /// allocation" overhead Table 4 attributes the routing slowdown to.
  virtual void heap_alloc(size_t bytes) = 0;

  /// This enclave's identity.
  virtual const Measurement& self_measurement() const = 0;
  virtual const SignerId& self_signer() const = 0;
  virtual EnclaveId self_id() const = 0;

  virtual CostModel& cost() = 0;
  virtual Platform& platform() = 0;
};

/// Interface implemented by trusted application code.
class EnclaveApp {
 public:
  virtual ~EnclaveApp() = default;

  /// Handles one ecall. `fn` selects the entry point; apps define their
  /// own function numbering. Throw to model an enclave-internal abort.
  virtual crypto::Bytes handle_call(uint32_t fn, crypto::BytesView arg,
                                    EnclaveEnv& env) = 0;
};

/// EPC page index of an enclave's first heap page; image pages occupy
/// [0, image page count) below it.
constexpr uint64_t kHeapBaseVaddr = uint64_t{1} << 20;

/// Handles ocalls on the untrusted side.
using OcallHandler =
    std::function<crypto::Bytes(uint32_t code, crypto::BytesView payload)>;

class Enclave {
 public:
  /// Built via Platform::launch() only.
  Enclave(Platform& platform, EnclaveId id, const SigStruct& sigstruct,
          const EnclaveImage& image);
  ~Enclave();

  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  /// Synchronous call into the enclave. Charges EENTER/EEXIT and boundary
  /// copies. On entry, every resident EPC page of this enclave that the
  /// adversary corrupted is MAC-checked (Epc::verify_owner_pages; MEE
  /// semantics, not charged). Throws HardwareFault if the enclave is dead
  /// or one of its resident pages was tampered with, on this entry and
  /// every later one until the enclave is restarted.
  crypto::Bytes ecall(uint32_t fn, crypto::BytesView arg);

  /// Installs the untrusted ocall handler (network I/O etc.).
  void set_ocall_handler(OcallHandler handler) { ocall_ = std::move(handler); }

  /// Opts this enclave into switchless transitions (DESIGN.md §10):
  /// subsequent ecalls and async ocalls are served through bounded
  /// shared-memory rings whenever the polling workers are awake, falling
  /// back to real transitions when a ring is full or its worker parked.
  /// Off by default; scenarios enable it per enclave.
  void enable_switchless(const SwitchlessConfig& config = {});
  [[nodiscard]] bool switchless_enabled() const {
    return ocall_ring_ != nullptr;
  }
  [[nodiscard]] const SwitchlessRing* ocall_ring() const {
    return ocall_ring_.get();
  }
  [[nodiscard]] const SwitchlessRing* ecall_ring() const {
    return ecall_ring_.get();
  }

  /// Executes every deferred switchless request in submission order on the
  /// untrusted side. Called internally wherever the host demonstrably runs
  /// (sync ocall, ecall return, quote hand-off); public so tests can force
  /// a drain.
  void flush_switchless();

  [[nodiscard]] EnclaveId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Measurement& measurement() const { return measurement_; }
  [[nodiscard]] const SignerId& signer() const { return signer_; }
  [[nodiscard]] uint32_t product_id() const { return product_id_; }
  [[nodiscard]] uint32_t security_version() const { return security_version_; }
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] Platform& platform() { return platform_; }

  /// Per-enclave instruction accounting (Table 1 reports target/quoting/
  /// challenger enclaves separately).
  [[nodiscard]] CostModel& cost() { return cost_; }
  [[nodiscard]] const CostModel& cost() const { return cost_; }

  /// EREMOVE: tear down (models the OS reclaiming EPC pages; a destroyed
  /// enclave faults on entry).
  void destroy();

 private:
  friend class EnvImpl;

  /// A switchless-eligible call fell back to a synchronous transition:
  /// notes why, and charges the host the kick a parked worker needs.
  void note_switchless_fallback(SwitchlessOutcome outcome);

  /// Runs one ocall on the untrusted side: charges the host its dispatch,
  /// meters any crypto work in the handler to the host, notes the payload
  /// for the taint lint and calls the handler. The one place an ocall
  /// reaches the host, synchronous or drained from the switchless ring.
  crypto::Bytes dispatch_to_host(uint32_t code, crypto::BytesView payload);

  Platform& platform_;
  EnclaveId id_;
  std::string name_;
  Measurement measurement_;
  SignerId signer_;
  uint32_t product_id_;
  uint32_t security_version_;
  size_t image_pages_;
  size_t heap_bytes_ = 0;
  size_t heap_pages_ = 0;
  bool alive_ = true;
  bool in_call_ = false;
  CostModel cost_;
  crypto::Drbg rng_;
  std::unique_ptr<EnclaveApp> app_;
  OcallHandler ocall_;
  std::unique_ptr<SwitchlessRing> ocall_ring_;
  std::unique_ptr<SwitchlessRing> ecall_ring_;
};

}  // namespace tenet::sgx
