#include "netsim/session_cache.h"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.h"

namespace tenet::netsim {

SessionCache::SessionCache(size_t hot_capacity) {
  if (hot_capacity == 0) {
    throw std::invalid_argument("SessionCache: hot_capacity must be >= 1");
  }
  hot_.resize(hot_capacity);
}

void SessionCache::install(uint64_t peer, crypto::BytesView key,
                           bool initiator) {
  if (key.size() != SecureChannel::kKeySize) {
    throw std::invalid_argument("SessionCache::install: bad key size");
  }
  auto [slot, inserted] = index_.insert(peer);
  if (inserted) {
    slot = static_cast<uint32_t>(sessions_.size());
    sessions_.emplace_back();
  }
  Session& s = sessions_[slot];
  std::copy(key.begin(), key.end(), s.key.begin());
  s.resume = SecureChannel::Resume{};  // fresh key -> sequences restart
  s.initiator = initiator;
  ++stats_.installs;
  TENET_COUNT("net.session_cache.installs");
  if (s.hot_slot != kNotHot) {
    // Re-key of a hot session: swap the materialized channel in place.
    hot_[s.hot_slot].channel.emplace(
        crypto::BytesView(s.key.data(), s.key.size()), s.initiator, s.resume);
    hot_[s.hot_slot].referenced = true;
  }
}

SecureChannel* SessionCache::find(uint64_t peer) {
  uint32_t* slot = index_.find(peer);
  if (slot == nullptr) return nullptr;
  Session& s = sessions_[*slot];
  if (s.hot_slot != kNotHot) {
    HotEntry& e = hot_[s.hot_slot];
    e.referenced = true;
    ++stats_.hot_hits;
    return &*e.channel;
  }

  const uint32_t hot_slot = claim_slot();
  HotEntry& e = hot_[hot_slot];
  e.session = *slot;
  e.referenced = true;
  e.channel.emplace(crypto::BytesView(s.key.data(), s.key.size()),
                    s.initiator, s.resume);
  s.hot_slot = hot_slot;
  ++hot_live_;
  ++stats_.resumes;
  TENET_COUNT("net.session_cache.resumes");
  return &*e.channel;
}

void SessionCache::evict(uint64_t peer) {
  uint32_t* slot = index_.find(peer);
  if (slot == nullptr) return;
  Session& s = sessions_[*slot];
  if (s.hot_slot == kNotHot) return;
  demote(s.hot_slot);
}

void SessionCache::demote(uint32_t slot) {
  HotEntry& e = hot_[slot];
  Session& s = sessions_[e.session];
  s.resume = e.channel->resume_state();
  s.hot_slot = kNotHot;
  e.session = UINT32_MAX;
  e.referenced = false;
  e.channel.reset();
  --hot_live_;
  ++stats_.evictions;
  TENET_COUNT("net.session_cache.evictions");
}

uint32_t SessionCache::claim_slot() {
  if (hot_live_ < hot_.size()) {
    // Free slot exists: take the first one from the hand on (deterministic).
    for (size_t i = 0; i < hot_.size(); ++i) {
      const size_t idx = (hand_ + i) % hot_.size();
      if (hot_[idx].session == UINT32_MAX) {
        hand_ = (idx + 1) % hot_.size();
        return static_cast<uint32_t>(idx);
      }
    }
  }
  // Clock sweep: first entry with a clear reference bit, clearing bits as
  // the hand passes. Terminates within two sweeps.
  for (;;) {
    HotEntry& e = hot_[hand_];
    const size_t idx = hand_;
    hand_ = (hand_ + 1) % hot_.size();
    if (e.referenced) {
      e.referenced = false;
      continue;
    }
    demote(static_cast<uint32_t>(idx));
    return static_cast<uint32_t>(idx);
  }
}

}  // namespace tenet::netsim
