// Core simulator value types, split out of sim.h so the event engine
// (event_engine.h) and the reference engine (reference_sim.h) can share
// them without pulling in the full Simulator interface.
#pragma once

#include <cstdint>

#include "crypto/bytes.h"
#include "telemetry/trace.h"

namespace tenet::netsim {

using NodeId = uint32_t;

constexpr NodeId kInvalidNode = 0;  // node ids start at 1

/// Packs a directed node pair into one 64-bit key (src in the high half).
[[nodiscard]] constexpr uint64_t directed_link_key(NodeId a, NodeId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Normalized (min,max) key: both directions of a link map to one key.
/// The single place ordered-pair normalization happens — latency() and
/// the fault plan share it, so a link's attributes are looked up once per
/// event instead of re-normalizing in every accessor.
[[nodiscard]] constexpr uint64_t link_key(NodeId a, NodeId b) {
  return a < b ? directed_link_key(a, b) : directed_link_key(b, a);
}

/// Handle for a pending timer; 0 is never a valid id.
using TimerId = uint64_t;

constexpr size_t kMtu = 1500;  // the paper's packet size (§5, Table 2)

/// An application-level message. The simulator accounts for its size in
/// MTU packets but delivers it whole (fragmentation is modelled in the
/// statistics, not re-assembled by every app).
struct Message {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  uint32_t port = 0;
  crypto::Bytes payload;
  /// Causal trace context (DESIGN.md §11). Stamped from the sender's
  /// ambient context by post() when unset; delivery re-installs it around
  /// handle_message so the receiver's spans join the sender's trace.
  telemetry::TraceContext trace{};
};

}  // namespace tenet::netsim
