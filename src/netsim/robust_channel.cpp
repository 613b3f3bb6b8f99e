#include "netsim/robust_channel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/telemetry.h"

namespace tenet::netsim {

double backoff_delay(const RetryPolicy& policy, uint32_t attempt,
                     crypto::Drbg& rng) {
  double delay = policy.base_delay * std::pow(policy.multiplier, attempt);
  delay = std::min(delay, policy.max_delay);
  if (policy.jitter > 0) {
    delay *= 1.0 + rng.uniform_real() * policy.jitter;
  }
  return delay;
}

void RobustChannel::install(crypto::BytesView key, bool initiator) {
  channel_.emplace(key, initiator);
  ++epoch_;
  consecutive_failures_ = 0;
  if (epoch_ > 1) TENET_COUNT("chan.rekeys");
}

void RobustChannel::reset() {
  channel_.reset();
  consecutive_failures_ = 0;
}

SecureChannel& RobustChannel::keyed() {
  if (!channel_.has_value()) {
    throw std::logic_error("RobustChannel: no key installed");
  }
  return *channel_;
}

crypto::Bytes RobustChannel::seal(crypto::BytesView plaintext) {
  return keyed().seal(plaintext);
}

void RobustChannel::seal_into(crypto::BytesView plaintext,
                              std::span<uint8_t> out) {
  keyed().seal_into(plaintext, out);
}

template <typename Open>
auto RobustChannel::tracked_open(Open open) -> decltype(open()) {
  if (!channel_.has_value()) return std::nullopt;
  auto opened = open();
  if (opened.has_value()) {
    consecutive_failures_ = 0;
  } else {
    ++consecutive_failures_;
  }
  return opened;
}

std::optional<crypto::Bytes> RobustChannel::open(crypto::BytesView record) {
  return tracked_open([&] { return channel_->open(record); });
}

std::optional<size_t> RobustChannel::open_in_place(
    std::span<uint8_t> record) {
  return tracked_open([&] { return channel_->open_in_place(record); });
}

}  // namespace tenet::netsim
