// Adversary toolkit implementing the paper's threat model (§2.1):
// "an adversary can compromise any software components including the
// operating system, hypervisor, and firmware. Also, hardware components
// (e.g., memory and I/O devices) can be inspected by an attacker except
// for the CPU package itself."
//
// Tests and the Tor/middlebox attack scenarios use these helpers to mount
// the attacks the designs must defeat. Epc exposes the raw ciphertext
// read/corrupt surface; this header adds software-level attacks.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sgx/enclave.h"
#include "sgx/image.h"
#include "sgx/quote.h"

namespace tenet::sgx::adversary {

/// A "curious volunteer" patches the program before launch (§3.2: "once
/// [volunteer nodes] are admitted in the system, it is easy for their
/// owners to modify the software to launch attacks"). The patched image
/// behaves identically unless `evil_factory` is supplied, but its
/// measurement — and hence its attestation identity — differs.
EnclaveImage patch_image(const EnclaveImage& original,
                         std::string_view patch_note,
                         AppFactory evil_factory = nullptr);

/// A forged quote: the attacker fabricates attestation evidence for
/// `claimed_measurement` and signs it with their own (non-authority) key.
/// Authority::verify_quote must reject it.
Quote forge_quote(const Measurement& claimed_measurement,
                  const Measurement& target, uint64_t claimed_platform,
                  const ReportData& report_data);

/// Replays a quote with substituted REPORTDATA (session-splicing MITM).
/// Attestation verifiers must reject it because REPORTDATA binds the
/// session's nonce and DH values.
Quote splice_report_data(const Quote& original, const ReportData& fresh);

// ---------------------------------------------------------------------------
// (Mis)Use-class attack helpers (DESIGN.md §15). The host controls every
// ocall handler and every byte of untrusted storage; these helpers make
// that power concrete so tests and the boundary fuzzer can assert the
// trusted side survives it.
// ---------------------------------------------------------------------------

/// Hostile-input mutation helpers, shared by the boundary fuzzer and the
/// misuse regression tests. All pure: the caller supplies the randomness.
[[nodiscard]] crypto::Bytes bit_flip(crypto::BytesView data, size_t bit);
[[nodiscard]] crypto::Bytes truncate(crypto::BytesView data, size_t len);
[[nodiscard]] crypto::Bytes extend(crypto::BytesView data, size_t extra,
                                   uint8_t fill);

/// Misuse class 1 — "secrets leaked via ocall arguments". The snooping
/// host wraps the real ocall handler and greps every outbound payload for
/// tracked secrets (raw bytes and their lowercase-hex spelling, the two
/// encodings a sloppy log line uses). A hit proves key material crossed
/// the boundary in the clear.
class OcallSnoop {
 public:
  struct Hit {
    std::string needle;  // name given to track()
    uint32_t code = 0;   // ocall code the secret rode out on
    size_t offset = 0;   // byte offset within the payload
    bool hex = false;    // matched the hex spelling, not the raw bytes
  };

  /// Registers a secret to watch for. Short needles (< 8 bytes) are
  /// ignored — too many false positives to mean anything.
  void track(std::string_view name, crypto::BytesView secret);

  /// Scans one outbound payload; records (and returns) any hits.
  size_t scan(uint32_t code, crypto::BytesView payload);

  /// Scans arbitrary exported text (telemetry JSON, trace labels) under a
  /// pseudo-code so exports share the hit machinery with ocalls.
  size_t scan_text(uint32_t pseudo_code, std::string_view text);

  /// Wraps `inner` so every ocall is scanned before the real handler runs.
  [[nodiscard]] OcallHandler wrap(OcallHandler inner);

  [[nodiscard]] const std::vector<Hit>& hits() const { return hits_; }
  [[nodiscard]] uint64_t payloads_observed() const { return observed_; }

 private:
  struct Needle {
    std::string name;
    crypto::Bytes raw;
    std::string hex;
  };
  std::vector<Needle> needles_;
  std::vector<Hit> hits_;
  uint64_t observed_ = 0;
};

/// Misuse class 3 — "seal without version" rollback. The host owns the
/// sealed-blob store, so it can always serve a stale-but-authentic blob.
/// The vault records every version it sees per slot and replays any of
/// them; defenses must detect the rollback (version vectors, monotonic
/// counters), because the blob itself authenticates fine.
class SealedBlobVault {
 public:
  /// Records a sealed blob for `slot`; returns its version index.
  size_t store(const std::string& slot, crypto::BytesView sealed);

  /// The blob most recently stored for `slot` (empty if none).
  [[nodiscard]] crypto::Bytes latest(const std::string& slot) const;

  /// Replays version `index` (0 = oldest). Empty if out of range.
  [[nodiscard]] crypto::Bytes replay(const std::string& slot,
                                     size_t index) const;

  [[nodiscard]] size_t versions(const std::string& slot) const;

 private:
  std::map<std::string, std::vector<crypto::Bytes>> history_;
};

}  // namespace tenet::sgx::adversary
