#include "sgx/switchless.h"

#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace tenet::sgx {

SwitchlessRing::SwitchlessRing(SwitchlessConfig config,
                               const char* occupancy_metric)
    : config_(config),
      occupancy_metric_(occupancy_metric),
      // Workers begin parked; the first call pays the wakeup.
      idle_polls_(config.spin_budget) {}

void SwitchlessRing::note_sync_transition() {
  if (!pending_.empty()) return;  // ring has work: the worker is busy
  if (idle_polls_ < config_.spin_budget) ++idle_polls_;
}

SwitchlessOutcome SwitchlessRing::begin_call() {
  if (worker_asleep()) {
    idle_polls_ = 0;  // the synchronous fallback doubles as the kick
    return SwitchlessOutcome::kFallbackAsleep;
  }
  if (full()) return SwitchlessOutcome::kFallbackFull;
  idle_polls_ = 0;
#if TENET_TELEMETRY_ENABLED
  // Occupancy *including* this call: a sync-result call occupies one slot
  // for its round trip; a deferred call joins the backlog. The TENET_*
  // macros cache their instrument per call site, which would alias the
  // ocall and ecall rings' histograms — go through the registry instead.
  if (telemetry::enabled()) {
    telemetry::registry().histogram(occupancy_metric_).record(
        pending_.size() + 1);
  }
#endif
  return SwitchlessOutcome::kHit;
}

void SwitchlessRing::push(uint32_t code, crypto::BytesView payload) {
  Request req{code, crypto::Bytes(payload.begin(), payload.end())};
  TENET_TRACE_CAPTURE(req.ctx);
  pending_.push_back(std::move(req));
}

void SwitchlessRing::push(uint32_t code, crypto::Bytes&& payload) {
  Request req{code, std::move(payload)};
  TENET_TRACE_CAPTURE(req.ctx);
  pending_.push_back(std::move(req));
}

size_t SwitchlessRing::drain(
    const std::function<void(uint32_t, const crypto::Bytes&)>& exec) {
  size_t n = 0;
  // FIFO; requests queued by the executed handlers (there are none today —
  // handlers run on the untrusted side) would drain in the same pass.
  while (!pending_.empty()) {
    Request req = std::move(pending_.front());
    pending_.pop_front();
    {
      // Deferred execution inherits the enqueuing span's context (flagged
      // as deferred), not the ambient context of whoever drains the ring.
      TENET_TRACE_CONTEXT_FLAGS(req.ctx,
                                telemetry::TraceContext::kFlagDeferred);
      exec(req.code, req.payload);
    }
    ++n;
  }
  if (n > 0) TENET_COUNT("sgx.switchless.drained", n);
  return n;
}

}  // namespace tenet::sgx
