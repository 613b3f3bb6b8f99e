// Deterministic discrete-event network simulator.
//
// The paper's applications are protocol designs (controller <-> AS
// controllers, Tor circuits, endpoint <-> middlebox); this module gives
// them a network to run on: named nodes, latency-weighted links, FIFO
// in-order delivery per link, byte/packet statistics. Determinism matters
// because the benches print paper-style tables that must be reproducible,
// so all tie-breaking is (time, sequence-number) ordered and all
// randomness comes from the simulator's seeded DRBG.
//
// The engine underneath is built for internet scale (DESIGN.md §12):
// events live in a slab MessagePool and are scheduled by a calendar
// queue (O(1) amortized instead of a binary heap's O(log n)); node
// state is dense NodeId-indexed vectors; link attributes are flat
// hashes keyed by normalized (min, max) pair keys; timer callbacks use
// small-buffer-optimized storage instead of std::function heap captures.
// None of this changes observable behavior: delivery order, RNG draw
// order, statistics, and telemetry are identical to the reference
// engine (reference_sim.h), which tests assert event-for-event.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/flat_map.h"
#include "crypto/rng.h"
#include "netsim/event_engine.h"
#include "netsim/fault.h"
#include "netsim/message.h"
#include "netsim/small_fn.h"
#include "telemetry/trace.h"

namespace tenet::telemetry {
class Scraper;
}

namespace tenet::netsim {

class Simulator;

/// Base class for network participants.
class Node {
 public:
  /// Registers with the simulator; the id is stable for the node's life.
  Node(Simulator& sim, std::string name);
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Simulator& sim() { return sim_; }

  /// Delivery callback; runs at the message's arrival time.
  virtual void handle_message(const Message& msg) = 0;

  /// Queues a message for delivery (arrival time = now + link latency +
  /// serialization delay).
  void send(NodeId dst, uint32_t port, crypto::Bytes payload);

 private:
  Simulator& sim_;
  NodeId id_;
  std::string name_;
};

/// Per-node traffic counters.
struct TrafficStats {
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t packets_sent = 0;  // ceil(bytes / MTU) per message
};

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1);
  ~Simulator();

  /// Simulated seconds since start.
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] crypto::Drbg& rng() { return rng_; }

  /// Pre-sizes node tables (and the event slab) for a topology of about
  /// `n` nodes — optional, avoids growth pauses in large scenarios.
  void reserve_nodes(size_t n);

  /// Sets the one-way latency between two nodes (symmetric). Unset pairs
  /// use the default latency.
  void set_latency(NodeId a, NodeId b, double seconds);
  void set_default_latency(double seconds) { default_latency_ = seconds; }
  [[nodiscard]] double latency(NodeId a, NodeId b) const;

  /// Link bandwidth used for serialization delay (bytes/second).
  void set_bandwidth(double bytes_per_second) { bandwidth_ = bytes_per_second; }

  /// Messages dropped by the fault plan, on post or on arrival.
  [[nodiscard]] uint64_t messages_dropped() const {
    const FaultCounters& c = faults_.counters();
    return c.window_dropped + c.partitioned + c.lost;
  }

  /// Fault-injection plan (loss/duplication/reordering/jitter/outage
  /// windows), the only way to fault the network. All probabilistic
  /// decisions draw from the sim's DRBG, and an empty plan draws nothing,
  /// so fault-free runs are byte-identical to runs without a plan.
  [[nodiscard]] FaultPlan& fault_plan() { return faults_; }
  [[nodiscard]] const FaultPlan& fault_plan() const { return faults_; }

  /// Schedules `fn` to run at now + delay. Timers share the event queue
  /// with messages, so ties are (time, seq)-ordered like everything else.
  /// If `owner` is a valid node id and that node unregisters before the
  /// timer fires, the timer is silently discarded (the callback may
  /// capture the node). Returns a handle for cancel_timer().
  TimerId schedule_timer(double delay, NodeId owner, SmallFn fn);

  /// Cancels a pending timer; false if it already fired or was cancelled.
  /// The callback (and anything it captured) is destroyed immediately.
  bool cancel_timer(TimerId id);

  /// Enqueues a message (called by Node::send; usable directly in tests).
  void post(Message msg);

  /// Installs a passive wiretap observing every posted message — the
  /// paper's network attacker can read (and with post()) inject arbitrary
  /// traffic; it cannot read inside enclaves. Pass nullptr to remove.
  void set_wiretap(std::function<void(const Message&)> tap) {
    wiretap_ = std::move(tap);
  }

  /// Attaches a periodic registry scraper: every `period` simulated
  /// seconds of virtual time crossed by the event clock takes one sample
  /// (stamped at the exact period boundary, so cadence is even no matter
  /// how events cluster). Scrapes happen inside step() rather than as
  /// self-rescheduling timers, so an attached scraper never keeps an
  /// otherwise-quiescent simulation alive. Pass nullptr to detach.
  void attach_scraper(telemetry::Scraper* scraper, double period = 0.001);

  /// Delivers the next event; false when idle.
  bool step();

  /// Runs until quiescent; returns events delivered. `max_events == 0`
  /// uses the configured cap (set_run_cap). Hitting the cap with events
  /// still queued bumps `net.run.cap_hit`, prints a warning, and throws —
  /// a large scenario can never silently truncate.
  size_t run(size_t max_events = 0);

  /// Configures the default run() safety cap; 0 disables it entirely.
  void set_run_cap(size_t cap) { run_cap_ = cap; }

  [[nodiscard]] const TrafficStats& stats(NodeId node) const;
  [[nodiscard]] uint64_t total_messages_delivered() const { return delivered_; }
  [[nodiscard]] size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] Node* find_node(NodeId id) const;
  [[nodiscard]] const std::string& node_name(NodeId id) const;

 private:
  friend class Node;
  NodeId register_node(Node* node, const std::string& name);
  void unregister_node(NodeId id);

  /// Computes delivery delay (with jitter/reorder faults) and enqueues.
  /// `payload_slot` carries a shared payload for duplicated messages
  /// (kNilSlot = payload inline in msg); `lk` is the normalized link key,
  /// computed once per post().
  void enqueue(Message msg, uint32_t payload_slot, uint64_t lk,
               const LinkFaults& faults);

  [[nodiscard]] TrafficStats& stats_ref(NodeId id);

  /// Takes any scraper samples due at period boundaries <= now_.
  void maybe_scrape();

  /// Emits the partition-heal fleet event when the clock leaves every
  /// scheduled partition window after a cut was observed.
  void poll_partition_heal();

  double now_ = 0;
  double default_latency_ = 0.001;   // 1 ms
  double bandwidth_ = 1.25e9;        // 10 Gbps
  uint64_t next_seq_ = 0;
  uint64_t delivered_ = 0;
  NodeId next_id_ = 1;
  crypto::Drbg rng_;
  // Dense node tables indexed by NodeId (ids are assigned sequentially
  // from 1; slot 0 is unused). names_ and stats_ outlive unregistration,
  // as before — only the Node* is cleared.
  std::vector<Node*> nodes_;
  std::vector<std::string> names_;
  std::vector<TrafficStats> stats_;
  /// Traffic posted with a forged/unregistered source id (wiretap
  /// injection) is still accounted, just off the dense path.
  crypto::FlatMap<uint64_t, TrafficStats> stats_overflow_;
  crypto::FlatMap<uint64_t, double> latencies_;  // by link_key(a, b)
  FaultPlan faults_;
  /// True between the first message dropped by a partition window and the
  /// first event after every window closes (cut/heal fleet events).
  bool partition_open_ = false;
  // Directed per-link delivery horizon: links are ordered byte streams
  // (TCP-like), so a small message posted after a large one on the same
  // link must not overtake it.
  crypto::FlatMap<uint64_t, double> link_horizon_;  // by directed key
  /// Enqueues until the next sweep of expired FIFO horizons, and the
  /// table size below which a sweep is skipped as not worth the rebuild
  /// (sim.cpp). Sweeps only discard entries that can no longer affect
  /// any arrival, so the cadence is a pure performance knob.
  static constexpr size_t kHorizonSweepPeriod = 8192;
  static constexpr size_t kHorizonSweepMin = 4096;
  size_t horizon_sweep_in_ = kHorizonSweepPeriod;
  MessagePool pool_;
  CalendarQueue queue_;
  size_t run_cap_ = 1'000'000;
  std::function<void(const Message&)> wiretap_;
  telemetry::Scraper* scraper_ = nullptr;
  double scrape_period_ = 0.001;
  double next_scrape_due_ = 0;
};

}  // namespace tenet::netsim
