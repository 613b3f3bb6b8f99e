// Platform (CPU package) and attestation authority emulation.
//
// A Platform owns everything the paper's threat model trusts: the root
// keys fused into the CPU, the EPC/MEE, the quoting enclave, and the
// per-platform attestation (EPID-member) credential. Everything outside —
// OS, hypervisor, other processes, DRAM — is untrusted and is modelled by
// the adversary hooks (sgx/adversary.h) plus the untrusted ocall handlers.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "crypto/rng.h"
#include "crypto/schnorr.h"
#include "sgx/enclave.h"
#include "sgx/epc.h"
#include "sgx/quote.h"

namespace tenet::sgx {

/// The attestation authority (Intel's role): provisions platforms into the
/// EPID group and publishes the group verification key. One Authority per
/// simulated world.
class Authority {
 public:
  explicit Authority(uint64_t seed = 2015);

  /// The group public key every verifier uses (§2.2 footnote 2).
  [[nodiscard]] const crypto::SchnorrPublicKey& group_public_key() const;

  /// Enrolls a platform; returns its id. Platform names must be unique.
  PlatformId enroll(const std::string& platform_name);

  /// Marks a platform's credential as revoked (EPID supports revocation;
  /// quotes from revoked platforms stop verifying).
  void revoke(PlatformId platform);
  [[nodiscard]] bool is_revoked(PlatformId platform) const;

  /// Verifies a QUOTE: group signature valid and platform not revoked.
  /// This is pure public-key verification — any challenger can run it.
  [[nodiscard]] bool verify_quote(const Quote& q) const;

  /// Signing access for the quoting enclave only ("only the quoting
  /// enclave can access the processor key used for attestation").
  [[nodiscard]] const crypto::GroupSigner& group_signer() const {
    return epid_;
  }

 private:
  crypto::Drbg rng_;
  crypto::GroupSigner epid_;
  std::map<std::string, PlatformId> platforms_;
  std::map<PlatformId, bool> revoked_;
  PlatformId next_id_ = 1;
};

class Platform {
 public:
  /// Creates an SGX-enabled platform enrolled with `authority`.
  Platform(Authority& authority, std::string name);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] PlatformId id() const { return id_; }
  [[nodiscard]] Authority& authority() { return authority_; }
  [[nodiscard]] Epc& epc() { return epc_; }

  /// Untrusted-side cost accounting (ocall handlers, host runtime).
  [[nodiscard]] CostModel& host_cost() { return host_cost_; }

  /// Full launch sequence: ECREATE, EADD+EEXTEND per page, EINIT with
  /// sigstruct verification. Throws HardwareFault if the sigstruct does
  /// not verify or does not match the image's measurement.
  Enclave& launch(const SigStruct& sigstruct, const EnclaveImage& image);

  /// Launches an image signed on the fly by `vendor` (convenience).
  Enclave& launch(const Vendor& vendor, const EnclaveImage& image,
                  uint32_t product_id = 1);

  /// Recovery path: tears down enclave `id` (EREMOVE — works on faulted
  /// enclaves too) and relaunches the same sigstruct + image as a fresh
  /// instance with a new id. All in-enclave state is lost, exactly like a
  /// real enclave restart; applications recover through sealed storage.
  /// The relaunch is charged through the cost model like any launch.
  /// Throws HardwareFault if `id` is unknown.
  Enclave& restart_enclave(EnclaveId id);

  /// The platform's quoting enclave (created lazily; its measurement is
  /// well-known — see quoting_enclave_measurement()).
  Enclave& quoting_enclave();

  /// The well-known QE identity, identical on every platform.
  static Measurement quoting_enclave_measurement();

  /// EGETKEY derivations (hardware; not instruction-charged).
  [[nodiscard]] crypto::Bytes derive_report_key(const Measurement& target) const;
  [[nodiscard]] crypto::Bytes derive_seal_key(const Measurement& mr_enclave,
                                              crypto::BytesView label) const;

  /// Produces a quote for `report` by routing it through the quoting
  /// enclave (Figure 1 messages 3-4). Returns nullopt if the QE rejected
  /// the report (wrong target or bad MAC).
  std::optional<Quote> quote_via_qe(const Report& report);

  /// Total instruction counts across this platform's enclaves + host.
  [[nodiscard]] CostModel::Snapshot total_snapshot() const;

  [[nodiscard]] std::vector<Enclave*> enclaves();

 private:
  friend class EnvImpl;

  Authority& authority_;
  std::string name_;
  PlatformId id_;
  crypto::Bytes root_secret_;  // fused key material (never leaves the CPU)
  CostModel host_cost_;
  Epc epc_;
  std::map<EnclaveId, std::unique_ptr<Enclave>> enclaves_;
  // What launch() was given, kept so restart_enclave() can re-create the
  // enclave bit-for-bit (the untrusted OS keeps the image on disk anyway).
  struct LaunchRecord {
    SigStruct sigstruct;
    EnclaveImage image;
  };
  std::map<EnclaveId, LaunchRecord> launch_records_;
  // Instruction counts of restarted (erased) enclave instances, so
  // total_snapshot() keeps counting work done before a crash.
  CostModel::Snapshot retired_cost_;
  EnclaveId next_enclave_id_ = 1;
  Enclave* qe_ = nullptr;
};

}  // namespace tenet::sgx
