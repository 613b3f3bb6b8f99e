// Reference event engine: the simulator core as it existed before the
// internet-scale rewrite (calendar queue + slab pool, DESIGN.md §12),
// preserved verbatim-in-semantics under the `refsim` namespace.
//
// Two consumers, both honest-comparison tools rather than production
// code paths:
//
//  * tests/netsim/scale_test.cpp runs identical seeded workloads through
//    both engines and asserts event-for-event equality — delivery order,
//    timestamps, delivery counts, RNG stream consumption — which is the
//    machine-checked form of the determinism contract the rewrite claims.
//  * bench/bench_scale.cpp times this engine against the new one on the
//    same workload to report a genuine before/after speedup, not a
//    number against a strawman.
//
// It deliberately keeps the original data structures: std::map node and
// link state, a binary-heap priority_queue of events, std::function
// timer callbacks, per-message heap payloads, and the pending/cancelled
// timer id sets. Telemetry counters match the original too, so both
// engines pay the same instrumentation cost when compared.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/rng.h"
#include "netsim/fault.h"
#include "netsim/message.h"
#include "telemetry/scrape.h"
#include "telemetry/trace.h"

namespace tenet::netsim::refsim {

class Simulator;

/// Base class for reference-engine network participants.
class Node {
 public:
  Node(Simulator& sim, std::string name);
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Simulator& sim() { return sim_; }

  virtual void handle_message(const Message& msg) = 0;

  void send(NodeId dst, uint32_t port, crypto::Bytes payload);

 private:
  Simulator& sim_;
  NodeId id_;
  std::string name_;
};

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1)
      : rng_(crypto::Drbg::from_label(seed, "tenet.netsim")) {}

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] crypto::Drbg& rng() { return rng_; }

  void set_latency(NodeId a, NodeId b, double seconds) {
    latencies_[ordered(a, b)] = seconds;
  }
  [[nodiscard]] double latency(NodeId a, NodeId b) const {
    const auto it = latencies_.find(ordered(a, b));
    return it != latencies_.end() ? it->second : default_latency_;
  }

  void set_bandwidth(double bytes_per_second) { bandwidth_ = bytes_per_second; }

  [[nodiscard]] uint64_t messages_dropped() const {
    return faults_.counters().window_dropped + faults_.counters().lost;
  }

  [[nodiscard]] FaultPlan& fault_plan() { return faults_; }

  TimerId schedule_timer(double delay, NodeId owner, std::function<void()> fn) {
    if (delay < 0) {
      throw std::invalid_argument("refsim: negative delay");
    }
    const TimerId id = next_timer_id_++;
    Event ev{};
    ev.time = now_ + delay;
    ev.seq = next_seq_++;
    ev.timer_id = id;
    ev.timer_owner = owner;
    ev.timer_fn = std::move(fn);
    TENET_TRACE_CAPTURE(ev.timer_ctx);
    queue_.push(std::move(ev));
    pending_timers_.insert(id);
    TENET_COUNT("net.timer.scheduled");
    return id;
  }

  bool cancel_timer(TimerId id) {
    if (pending_timers_.erase(id) == 0) return false;
    cancelled_timers_.insert(id);
    TENET_COUNT("net.timer.cancelled");
    return true;
  }

  void post(Message msg) {
    if (msg.dst == kInvalidNode) {
      throw std::invalid_argument("refsim: invalid destination");
    }
    if (msg.trace.empty()) TENET_TRACE_CAPTURE(msg.trace);
    TENET_COUNT("net.messages_sent");
    TENET_COUNT("net.bytes_sent", msg.payload.size());
    TENET_HISTOGRAM("net.message_bytes", msg.payload.size());

    static const LinkFaults kNoFaults;
    const LinkFaults* lf = &kNoFaults;
    if (!faults_.empty()) {
      if (!faults_.node_up(msg.src, now_) || !faults_.node_up(msg.dst, now_) ||
          !faults_.link_window_up(msg.src, msg.dst, now_)) {
        ++faults_.counters().window_dropped;
        TENET_COUNT("net.messages_dropped");
        TENET_COUNT("net.fault.window_drop");
        return;
      }
      lf = &faults_.faults(msg.src, msg.dst);
      if (lf->loss > 0 && rng_.uniform_real() < lf->loss) {
        ++faults_.counters().lost;
        TENET_COUNT("net.messages_dropped");
        TENET_COUNT("net.fault.loss");
        return;
      }
    }
    const bool duplicate =
        lf->duplicate > 0 && rng_.uniform_real() < lf->duplicate;
    if (duplicate) {
      ++faults_.counters().duplicated;
      TENET_COUNT("net.fault.duplicate");
      enqueue(msg, *lf);  // first copy; draws its own jitter/reorder
    }
    enqueue(std::move(msg), *lf);
  }

  bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.top();
    queue_.pop();
    if (ev.timer_id != 0) {
      if (cancelled_timers_.erase(ev.timer_id) > 0) {
        return true;
      }
      pending_timers_.erase(ev.timer_id);
      if (ev.timer_owner != kInvalidNode && !nodes_.contains(ev.timer_owner)) {
        return true;
      }
      now_ = ev.time;
      TENET_COUNT("net.timer.fired");
      TENET_TRACE_CONTEXT(ev.timer_ctx);
      ev.timer_fn();
      return true;
    }
    now_ = ev.time;
    const auto it = nodes_.find(ev.msg.dst);
    if (it == nodes_.end()) return true;
    if (!faults_.empty() && !faults_.node_up(ev.msg.dst, now_)) {
      ++faults_.counters().window_dropped;
      TENET_COUNT("net.messages_dropped");
      TENET_COUNT("net.fault.window_drop");
      return true;
    }

    ++delivered_;
    TENET_COUNT("net.messages_delivered");
    TENET_GAUGE_SET("net.pending_events", static_cast<int64_t>(queue_.size()));
    {
      TENET_TRACE_CONTEXT(ev.msg.trace);
      TENET_SPAN("net", "deliver");
      it->second->handle_message(ev.msg);
    }
    return true;
  }

  size_t run(size_t max_events = 1'000'000) {
    size_t n = 0;
    while (n < max_events && step()) ++n;
    if (n == max_events && !queue_.empty()) {
      throw std::runtime_error("refsim: event cap hit");
    }
    return n;
  }

  [[nodiscard]] uint64_t total_messages_delivered() const { return delivered_; }
  [[nodiscard]] size_t pending_events() const { return queue_.size(); }

 private:
  friend class Node;

  static std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  NodeId register_node(Node* node) {
    const NodeId id = next_id_++;
    nodes_[id] = node;
    return id;
  }
  void unregister_node(NodeId id) { nodes_.erase(id); }

  struct Event {
    double time;
    uint64_t seq;
    Message msg;
    TimerId timer_id = 0;
    NodeId timer_owner = kInvalidNode;
    std::function<void()> timer_fn;
    telemetry::TraceContext timer_ctx{};
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  void enqueue(Message msg, const LinkFaults& faults) {
    const double serialize =
        static_cast<double>(msg.payload.size()) / bandwidth_;
    double arrival = now_ + latency(msg.src, msg.dst) + serialize;
    if (faults.jitter > 0) {
      arrival += rng_.uniform_real() * faults.jitter;
      ++faults_.counters().jittered;
      TENET_COUNT("net.fault.jitter");
    }
    const bool reorder =
        faults.reorder > 0 && rng_.uniform_real() < faults.reorder;
    double& horizon = link_horizon_[{msg.src, msg.dst}];
    if (reorder) {
      ++faults_.counters().reordered;
      TENET_COUNT("net.fault.reorder");
      arrival = std::max(arrival, horizon) + faults.reorder_delay;
    } else {
      arrival = std::max(arrival, horizon);
      horizon = arrival;
    }
    Event ev{};
    ev.time = arrival;
    ev.seq = next_seq_++;
    ev.msg = std::move(msg);
    queue_.push(std::move(ev));
  }

  double now_ = 0;
  double default_latency_ = 0.001;
  double bandwidth_ = 1.25e9;
  uint64_t next_seq_ = 0;
  uint64_t delivered_ = 0;
  NodeId next_id_ = 1;
  crypto::Drbg rng_;
  std::map<NodeId, Node*> nodes_;
  std::map<std::pair<NodeId, NodeId>, double> latencies_;
  FaultPlan faults_;
  TimerId next_timer_id_ = 1;
  std::set<TimerId> pending_timers_;
  std::set<TimerId> cancelled_timers_;
  std::map<std::pair<NodeId, NodeId>, double> link_horizon_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
};

inline Node::Node(Simulator& sim, std::string name)
    : sim_(sim), id_(sim.register_node(this)), name_(std::move(name)) {}

inline Node::~Node() { sim_.unregister_node(id_); }

inline void Node::send(NodeId dst, uint32_t port, crypto::Bytes payload) {
  sim_.post(Message{id_, dst, port, std::move(payload)});
}

}  // namespace tenet::netsim::refsim
