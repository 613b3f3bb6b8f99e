// Switchless enclave transitions: a bounded request/response ring.
//
// The paper's evaluation (§5, Tables 2-3) shows EENTER/EEXIT boundary
// crossings dominating the cost of I/O-heavy enclave applications: every
// ocall is an EEXIT + ERESUME pair (2 x 10K cycles plus two context
// switches) even when the request is a fire-and-forget packet send.
// Switchless calls — pioneered by the Intel SGX SDK's switchless mode and
// analyzed by Svenningsson et al. ("Speeding up enclave transitions for
// IO-intensive applications") — replace the transition with a shared-memory
// ring: the caller writes a request descriptor into an untrusted ring slot
// and a polling worker on the other side picks it up, so the hot path costs
// a cache-line transfer instead of a round trip through microcode and the
// kernel.
//
// This module models that mechanism deterministically:
//
//   * Requests are queued in a bounded FIFO ring (`ring_capacity` slots).
//     A full ring means the worker is behind — the caller falls back to a
//     real synchronous transition (which also drains the backlog, since the
//     other side is demonstrably running).
//   * The worker spins for `spin_budget` polls before parking. Virtual
//     idle time is measured in *synchronous transition events observed
//     while the ring is empty* — each one stands for a boundary-crossing's
//     worth of empty polls. A parked worker cannot serve the ring, so the
//     next call falls back to a synchronous transition, which doubles as
//     the wakeup kick (`per_worker_wakeup` amortisation).
//   * Workers start parked: until the first call arrives there is no
//     reason to burn a core polling.
//
// Determinism: all state is plain integers updated by the single simulation
// thread; a scripted run takes byte-identical hit/fallback decisions every
// time. Application-visible behaviour is *identical* with switchless on or
// off — deferred requests drain in submission order before any other
// host-visible work (see Enclave::flush_switchless) — so only the cost
// accounting and the sgx.switchless.* telemetry differ between modes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "crypto/bytes.h"
#include "telemetry/trace.h"

namespace tenet::sgx {

/// Per-enclave switchless tuning knobs (scenario-selectable).
struct SwitchlessConfig {
  uint32_t ring_capacity = 64;  // request slots per direction
  uint32_t spin_budget = 64;    // empty polls before the worker parks
};

/// Outcome of classifying one would-be switchless call. The ring keeps no
/// tally of its own: the caller hands the outcome to its CostModel
/// (note_switchless_hit / note_switchless_fallback), which counts it.
enum class SwitchlessOutcome : uint8_t {
  kHit,             // served through the ring, no transition
  kFallbackFull,    // ring full -> synchronous transition
  kFallbackAsleep,  // worker parked -> synchronous transition + wakeup
};

/// One direction of the switchless machinery (ocall ring or ecall ring).
/// Owns the deferred-request FIFO plus the deterministic worker model.
class SwitchlessRing {
 public:
  explicit SwitchlessRing(SwitchlessConfig config,
                          const char* occupancy_metric);

  [[nodiscard]] const SwitchlessConfig& config() const { return config_; }

  /// The deterministic idle clock: one synchronous boundary crossing
  /// elapsed in this enclave's domain. While the ring is empty each such
  /// event burns one unit of the worker's spin budget; once the budget is
  /// gone the worker parks.
  void note_sync_transition();

  [[nodiscard]] bool worker_asleep() const {
    return idle_polls_ >= config_.spin_budget;
  }
  [[nodiscard]] bool full() const {
    return pending_.size() >= config_.ring_capacity;
  }
  [[nodiscard]] size_t pending() const { return pending_.size(); }

  /// Classifies the next call and updates the worker model: a hit resets
  /// the spin budget; a parked-worker fallback wakes the worker (the
  /// synchronous transition is the kick). Records ring occupancy.
  SwitchlessOutcome begin_call();

  /// Queues a deferred (fire-and-forget) request after begin_call()
  /// returned kHit. The payload is copied — it lives in the shared ring
  /// until the worker drains it. The enqueuing span's trace context rides
  /// in the slot so the drained execution joins the originating trace.
  void push(uint32_t code, crypto::BytesView payload);

  /// Move-push: the caller's buffer becomes the ring slot directly (the
  /// zero-copy record path seals straight into it — no intermediate copy
  /// between the record layer and the ring).
  void push(uint32_t code, crypto::Bytes&& payload);

  /// Executes every pending request in FIFO order through `exec`; returns
  /// how many were drained. Called whenever the host side demonstrably
  /// runs (sync ocall, ecall exit) so deferred effects stay ordered
  /// exactly as a synchronous run would order them. Each request executes
  /// under the trace context captured at push time, with kFlagDeferred
  /// OR-ed in — deferral changes *when* work runs, never which request it
  /// belongs to.
  size_t drain(const std::function<void(uint32_t, const crypto::Bytes&)>& exec);

 private:
  struct Request {
    uint32_t code;
    crypto::Bytes payload;
    telemetry::TraceContext ctx{};  // enqueuing span's context
  };

  SwitchlessConfig config_;
  const char* occupancy_metric_;  // telemetry histogram name (string literal)
  std::deque<Request> pending_;
  uint32_t idle_polls_;  // starts at spin_budget: workers begin parked
};

}  // namespace tenet::sgx
