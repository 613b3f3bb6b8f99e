// RobustChannel: a SecureChannel that survives faults.
//
// The paper establishes channels once, at first contact (§5); under
// injected faults that is not enough — records get lost, peers restart
// and lose their keys, MACs fail. RobustChannel wraps the record layer
// with the bookkeeping recovery needs: key epochs (each re-attestation
// installs a fresh key), consecutive-failure tracking (to tell a burst of
// tampering from a dead peer), and proactive rekey signals before nonce
// exhaustion. The retry schedule itself (exponential backoff + DRBG
// jitter, bounded attempts) lives in RetryPolicy and is executed by the
// SecureApp runtime via simulator timers.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/rng.h"
#include "netsim/secure_channel.h"

namespace tenet::netsim {

/// Knobs for attestation retry / re-handshake. Disabled by default so
/// existing deployments behave exactly as before; scenarios that inject
/// faults opt in.
struct RetryPolicy {
  bool enabled = false;
  /// Handshake attempts before giving up on a peer (1 = no retry).
  uint32_t max_attempts = 5;
  double base_delay = 0.05;  // seconds before the first retry
  double multiplier = 2.0;   // exponential backoff factor
  double max_delay = 2.0;    // backoff cap (seconds)
  /// Fraction of the backoff added as random jitter: the delay for
  /// attempt k is min(base * multiplier^k, max) * (1 + U[0,1) * jitter).
  double jitter = 0.5;
  /// Consecutive SecureChannel::open failures on an established channel
  /// before the peer is presumed restarted/compromised and re-attested.
  uint32_t mac_failure_threshold = 3;
};

/// Backoff before retry number `attempt` (0-based), jittered from `rng`.
/// Deterministic given the DRBG state; draws exactly one value iff
/// policy.jitter > 0.
double backoff_delay(const RetryPolicy& policy, uint32_t attempt,
                     crypto::Drbg& rng);

class RobustChannel {
 public:
  /// Installs a fresh key (first handshake or rekey). Bumps the epoch and
  /// clears failure tracking.
  void install(crypto::BytesView key, bool initiator);

  /// Drops the channel (peer restart detected / giving up). The epoch is
  /// kept so counters survive the reset.
  void reset();

  [[nodiscard]] bool ready() const { return channel_.has_value(); }

  /// Record layer pass-through. seal() requires ready(); open() returns
  /// nullopt when not ready.
  [[nodiscard]] crypto::Bytes seal(crypto::BytesView plaintext);
  [[nodiscard]] std::optional<crypto::Bytes> open(crypto::BytesView record);

  /// Zero-copy pass-throughs (see SecureChannel::sealed_size/seal_into).
  /// seal_into() requires ready(), like seal().
  [[nodiscard]] static constexpr size_t sealed_size(size_t plaintext_len) {
    return SecureChannel::sealed_size(plaintext_len);
  }
  void seal_into(crypto::BytesView plaintext, std::span<uint8_t> out);

  /// In-place open pass-through (see SecureChannel::open_in_place). Updates
  /// the consecutive-failure count exactly like open().
  [[nodiscard]] std::optional<size_t> open_in_place(std::span<uint8_t> record);

  /// Number of keys installed over this channel's life (1 = never rekeyed).
  [[nodiscard]] uint32_t epoch() const { return epoch_; }

  /// open() failures since the last success on the current key.
  [[nodiscard]] uint32_t consecutive_failures() const {
    return consecutive_failures_;
  }

  /// True when the current key is near nonce exhaustion (see
  /// SecureChannel::needs_rekey) and the owner should re-handshake.
  [[nodiscard]] bool needs_rekey() const {
    return channel_.has_value() && channel_->needs_rekey();
  }

  /// Access to the wrapped channel (tests; nullptr when not ready).
  [[nodiscard]] SecureChannel* channel() {
    return channel_.has_value() ? &*channel_ : nullptr;
  }

 private:
  /// The keyed channel; throws std::logic_error when none is installed.
  /// The one no-key check behind seal() and seal_into().
  SecureChannel& keyed();

  /// open() and open_in_place(): nullopt with no failure recorded when no
  /// key is installed, else `open()` (the SecureChannel open) with the
  /// consecutive-failure bookkeeping. Defined in the .cpp file, the only
  /// place it is instantiated.
  template <typename Open>
  auto tracked_open(Open open) -> decltype(open());

  std::optional<SecureChannel> channel_;
  uint32_t epoch_ = 0;
  uint32_t consecutive_failures_ = 0;
};

}  // namespace tenet::netsim
