// Deterministic fault injection for the network simulator.
//
// A FaultPlan describes *what can go wrong* on the wire: per-link loss,
// duplication, reordering, latency jitter, and scheduled down->up windows
// for links and nodes. These are the DoS-class failures the paper leaves
// in scope for the network attacker, and the plan is the simulator's only
// way to inject them: a cut link is `set_link(a, b, LinkFaults{.loss = 1})`
// and a heal is `set_link(a, b, {})`, both taking effect for the next
// post. The Simulator consults the plan at post/delivery time and draws
// every probabilistic decision from its own seeded DRBG (a loss-1 link
// draws once per message it drops), so a given (seed, plan, workload)
// triple replays the exact same fault schedule. A default-constructed
// plan injects nothing and costs no RNG draws, keeping fault-free runs
// byte-identical to a simulator without a plan at all.
//
// Plan state is keyed by the same normalized link_key() the Simulator
// uses (message.h), so per-event fault lookups are O(1) probes of the
// one flat table (crypto/flat_map.h) rather than ordered-map walks.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/flat_map.h"
#include "netsim/message.h"

namespace tenet::netsim {

/// Per-link fault knobs. Probabilities are independent per message.
struct LinkFaults {
  double loss = 0;       // drop probability
  double duplicate = 0;  // probability the message is delivered twice
  double reorder = 0;    // probability the message escapes FIFO ordering
  double jitter = 0;     // max extra latency (seconds), uniform [0, jitter)
  /// Extra delay applied to a reordered message; later messages on the
  /// link may overtake it because it does not advance the FIFO horizon.
  double reorder_delay = 0.002;

  [[nodiscard]] bool any() const {
    return loss > 0 || duplicate > 0 || reorder > 0 || jitter > 0;
  }
};

/// Injection totals, kept by the plan and bumped by the Simulator.
struct FaultCounters {
  uint64_t lost = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t jittered = 0;
  uint64_t window_dropped = 0;  // dropped inside a link/node down window
  uint64_t partitioned = 0;     // dropped by a network-partition window
};

class FaultPlan {
 public:
  /// Faults applied to links with no per-link override.
  void set_default(const LinkFaults& faults);

  /// Per-link override (symmetric: applies to both directions).
  void set_link(NodeId a, NodeId b, const LinkFaults& faults);

  [[nodiscard]] const LinkFaults& faults(NodeId a, NodeId b) const;

  /// Schedules a down->up window: messages crossing the link (either
  /// direction) during [from, until) are dropped.
  void add_link_window(NodeId a, NodeId b, double from, double until);

  /// Schedules a node outage: messages sent by or arriving at the node
  /// during [from, until) are dropped.
  void add_node_window(NodeId node, double from, double until);

  /// Schedules a symmetric network partition: every message between a node
  /// in `side_a` and a node in `side_b` (either direction) during
  /// [from, until) is dropped. Traffic within a side is untouched — this is
  /// the split-brain primitive for replica groups (the minority side must
  /// fail closed while the majority keeps serving).
  void add_partition(const std::vector<NodeId>& side_a,
                     const std::vector<NodeId>& side_b, double from,
                     double until);

  [[nodiscard]] bool node_up(NodeId node, double t) const;
  [[nodiscard]] bool link_window_up(NodeId a, NodeId b, double t) const;
  /// False while (a, b) is cut by a scheduled partition.
  [[nodiscard]] bool partition_up(NodeId a, NodeId b, double t) const;
  /// True while any scheduled partition window (any pair) covers `t` —
  /// the simulator uses the falling edge to emit the partition-heal event.
  [[nodiscard]] bool any_partition_active(double t) const;

  /// True when no knob is set anywhere — the Simulator's fast path.
  [[nodiscard]] bool empty() const {
    return !default_.any() && per_link_.empty() && link_windows_.empty() &&
           node_windows_.empty() && partition_windows_.empty();
  }

  [[nodiscard]] const FaultCounters& counters() const { return counters_; }
  [[nodiscard]] FaultCounters& counters() { return counters_; }

 private:
  struct Window {
    double from;
    double until;
  };
  static bool in_any(const std::vector<Window>& windows, double t);

  LinkFaults default_;
  using Windows = std::vector<Window>;
  crypto::FlatMap<uint64_t, LinkFaults> per_link_;  // by link_key(a, b)
  crypto::FlatMap<uint64_t, Windows> link_windows_;  // by link_key(a, b)
  crypto::FlatMap<uint64_t, Windows> node_windows_;  // by node id
  crypto::FlatMap<uint64_t, Windows> partition_windows_;  // by link_key(a, b)
  std::vector<Window> all_partitions_;  // one per add_partition call
  FaultCounters counters_;
};

}  // namespace tenet::netsim
