#include "netsim/sim.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "telemetry/events.h"
#include "telemetry/scrape.h"
#include "telemetry/trace.h"

namespace tenet::netsim {

namespace {
/// Virtual time in integer microseconds — the tracer's clock unit.
uint64_t sim_clock(void* ctx) {
  return static_cast<uint64_t>(static_cast<Simulator*>(ctx)->now() * 1e6);
}
}  // namespace

Node::Node(Simulator& sim, std::string name)
    : sim_(sim), id_(sim.register_node(this, name)), name_(std::move(name)) {}

Node::~Node() { sim_.unregister_node(id_); }

void Node::send(NodeId dst, uint32_t port, crypto::Bytes payload) {
  sim_.post(Message{id_, dst, port, std::move(payload)});
}

Simulator::Simulator(uint64_t seed)
    : rng_(crypto::Drbg::from_label(seed, "tenet.netsim")) {
  // Drive trace timestamps from virtual time, so traces of a scripted run
  // are deterministic. Last simulator constructed wins (scenarios build
  // exactly one); the destructor only uninstalls its own clock.
  telemetry::tracer().set_clock(&sim_clock, this);
}

Simulator::~Simulator() { telemetry::tracer().clear_clock(this); }

NodeId Simulator::register_node(Node* node, const std::string& name) {
  const NodeId id = next_id_++;
  if (nodes_.size() <= id) {
    nodes_.resize(id + 1, nullptr);
    names_.resize(id + 1);
    stats_.resize(id + 1);
  }
  nodes_[id] = node;
  names_[id] = name;
  return id;
}

void Simulator::unregister_node(NodeId id) {
  if (id < nodes_.size()) nodes_[id] = nullptr;
}

void Simulator::reserve_nodes(size_t n) {
  nodes_.reserve(n + 1);
  names_.reserve(n + 1);
  stats_.reserve(n + 1);
  pool_.reserve(n);
}

void Simulator::set_latency(NodeId a, NodeId b, double seconds) {
  latencies_.insert(link_key(a, b)).value = seconds;
}

double Simulator::latency(NodeId a, NodeId b) const {
  const double* lat = latencies_.find(link_key(a, b));
  return lat != nullptr ? *lat : default_latency_;
}

void Simulator::post(Message msg) {
  if (msg.dst == kInvalidNode) {
    throw std::invalid_argument("Simulator::post: invalid destination");
  }
  // Stamp the sender's ambient trace context unless the caller already set
  // one (retransmission paths pre-stamp the original context + retx flag).
  if (msg.trace.empty()) TENET_TRACE_CAPTURE(msg.trace);
  auto& s = stats_ref(msg.src);
  s.messages_sent += 1;
  s.bytes_sent += msg.payload.size();
  s.packets_sent += (msg.payload.size() + kMtu - 1) / kMtu;
  if (msg.payload.empty()) s.packets_sent += 1;  // empty message = 1 packet
  TENET_COUNT("net.messages_sent");
  TENET_COUNT("net.bytes_sent", msg.payload.size());
  TENET_HISTOGRAM("net.message_bytes", msg.payload.size());

  if (wiretap_) wiretap_(msg);
  // Normalize the link key once; every per-link lookup below shares it.
  const uint64_t lk = link_key(msg.src, msg.dst);

  // Fault plan. Every check below is a no-op (and draws no randomness)
  // when the corresponding knob is unset, so an empty plan leaves the
  // event stream untouched.
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
    if (!faults_.partition_up(msg.src, msg.dst, now_)) {
      // Symmetric partition cut (split-brain drill): both directions of
      // every cross-side pair drop for the window's duration.
      ++faults_.counters().partitioned;
      TENET_COUNT("net.messages_dropped");
      TENET_COUNT("net.fault.partition");
      if (!partition_open_) {
        // Rising edge: first message dropped by a partition window. The
        // matching heal event fires when the clock leaves every window.
        partition_open_ = true;
        TENET_EVENT(kPartitionCut, static_cast<uint32_t>(msg.src), msg.dst);
      }
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
    // Both copies reference one payload buffer; delivery copies for the
    // first and moves for the last (MessagePool::take_payload).
    const uint32_t pslot = pool_.payload_share(std::move(msg.payload), 2);
    msg.payload.clear();
    Message copy = msg;  // cheap: payload now lives in the slab
    enqueue(std::move(copy), pslot, lk, *lf);  // draws jitter/reorder first
    enqueue(std::move(msg), pslot, lk, *lf);
    return;
  }
  enqueue(std::move(msg), kNilSlot, lk, *lf);
}

void Simulator::enqueue(Message msg, uint32_t payload_slot, uint64_t lk,
                        const LinkFaults& faults) {
  const size_t payload_bytes = payload_slot == kNilSlot
                                   ? msg.payload.size()
                                   : pool_.payload_size(payload_slot);
  const double serialize = static_cast<double>(payload_bytes) / bandwidth_;
  const double* lat = latencies_.find(lk);
  double arrival =
      now_ + (lat != nullptr ? *lat : default_latency_) + serialize;
  if (faults.jitter > 0) {
    arrival += rng_.uniform_real() * faults.jitter;
    ++faults_.counters().jittered;
    TENET_COUNT("net.fault.jitter");
  }
  const bool reorder =
      faults.reorder > 0 && rng_.uniform_real() < faults.reorder;
  // FIFO per directed link: never schedule before an earlier message. A
  // reordered message is delayed extra and skips the horizon entirely, so
  // later messages on the link may overtake it.
  double& horizon =
      link_horizon_.insert(directed_link_key(msg.src, msg.dst)).value;
  if (reorder) {
    ++faults_.counters().reordered;
    TENET_COUNT("net.fault.reorder");
    arrival = std::max(arrival, horizon) + faults.reorder_delay;
  } else {
    arrival = std::max(arrival, horizon);
    horizon = arrival;
  }
  // Expired horizons (<= now) can never raise an arrival again — sweep
  // them periodically so the table tracks only currently-busy links
  // instead of every (src, dst) pair ever used. Count-driven, so sweep
  // timing is a deterministic function of the event stream.
  if (--horizon_sweep_in_ == 0) {
    horizon_sweep_in_ = kHorizonSweepPeriod;
    if (link_horizon_.size() >= kHorizonSweepMin) {
      const double now = now_;
      link_horizon_.retain([now](uint64_t, double h) { return h > now; });
    }
  }
  const uint32_t ei = pool_.acquire();
  PooledEvent& ev = pool_.slot(ei);
  ev.time = arrival;
  ev.msg = std::move(msg);
  ev.payload_slot = payload_slot;
  queue_.push(arrival, next_seq_++, ei);
}

TimerId Simulator::schedule_timer(double delay, NodeId owner, SmallFn fn) {
  if (delay < 0) {
    throw std::invalid_argument("Simulator::schedule_timer: negative delay");
  }
  const uint32_t ei = pool_.acquire();
  PooledEvent& ev = pool_.slot(ei);
  ev.time = now_ + delay;
  ev.timer_owner = owner;
  // Trace context captured at schedule time; firing re-installs it so
  // timer-driven work (retries, rekeys) stays on the scheduling trace.
  telemetry::TraceContext ctx{};
  TENET_TRACE_CAPTURE(ctx);
  pool_.set_timer_fn(ei, std::move(fn), ctx);
  const TimerId id = (static_cast<uint64_t>(ev.gen) << 32) | ei;
  ev.timer_id = id;
  queue_.push(ev.time, next_seq_++, ei);
  TENET_COUNT("net.timer.scheduled");
  return id;
}

bool Simulator::cancel_timer(TimerId id) {
  const uint32_t ei = static_cast<uint32_t>(id & 0xffffffffu);
  if (ei >= pool_.capacity()) return false;
  PooledEvent& ev = pool_.slot(ei);
  // The id encodes (generation, slot): it matches only while that exact
  // timer is still pending (fired/released slots have timer_id == 0 or a
  // newer generation).
  if (ev.timer_id != id || ev.cancelled) return false;
  ev.cancelled = true;
  // Free the callback and its captures now rather than when the queue
  // entry drains — long chaos runs cancel far more timers than they fire.
  pool_.drop_timer_fn(ei);
  TENET_COUNT("net.timer.cancelled");
  return true;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const uint32_t ei = queue_.pop();
  PooledEvent& ev = pool_.slot(ei);
  if (ev.timer_id != 0 || ev.cancelled) {
    if (ev.cancelled) {
      pool_.release(ei);
      return true;  // cancelled: discard without advancing the clock
    }
    if (ev.timer_owner != kInvalidNode &&
        (ev.timer_owner >= nodes_.size() ||
         nodes_[ev.timer_owner] == nullptr)) {
      pool_.release(ei);
      return true;  // owner vanished: the callback must not run
    }
    // Move everything the callback needs onto the stack and release the
    // slot first: the callback may re-enter (schedule/post) and recycle
    // this very slot.
    const double time = ev.time;
    telemetry::TraceContext ctx;
    SmallFn fn = pool_.take_timer_fn(ei, ctx);
    pool_.release(ei);
    now_ = time;
    maybe_scrape();
    poll_partition_heal();
    TENET_COUNT("net.timer.fired");
    TENET_TRACE_CONTEXT(ctx);
    fn();
    return true;
  }
  now_ = ev.time;
  maybe_scrape();
  poll_partition_heal();
  const NodeId dst = ev.msg.dst;
  if (dst >= nodes_.size() || nodes_[dst] == nullptr) {
    pool_.release(ei);
    return true;  // destination vanished: drop
  }
  if (!faults_.empty() && !faults_.node_up(dst, now_)) {
    ++faults_.counters().window_dropped;
    TENET_COUNT("net.messages_dropped");
    TENET_COUNT("net.fault.window_drop");
    pool_.release(ei);
    return true;  // arrived while the destination was down
  }

  auto& s = stats_ref(dst);
  s.messages_received += 1;
  s.bytes_received += pool_.event_payload_size(ei);
  ++delivered_;
  TENET_COUNT("net.messages_delivered");
  TENET_GAUGE_SET("net.pending_events", static_cast<int64_t>(queue_.size()));
  // Same re-entry hazard as timers: extract the message and release the
  // slot before dispatching to the handler.
  Node* node = nodes_[dst];
  Message msg = std::move(ev.msg);
  if (ev.payload_slot != kNilSlot) msg.payload = pool_.take_payload(ei);
  pool_.release(ei);
  {
    TENET_TRACE_CONTEXT(msg.trace);
    TENET_SPAN("net", "deliver");
    node->handle_message(msg);
  }
  return true;
}

void Simulator::attach_scraper(telemetry::Scraper* scraper, double period) {
  if (scraper != nullptr && period <= 0) {
    throw std::invalid_argument("Simulator::attach_scraper: bad period");
  }
  scraper_ = scraper;
  scrape_period_ = period;
  next_scrape_due_ = now_;
}

void Simulator::maybe_scrape() {
  if (scraper_ == nullptr || !telemetry::enabled()) return;
  // Catch up every boundary the clock just crossed. Between events no
  // instrument changes, so a sample taken now with a boundary timestamp
  // is exactly the registry state at that boundary.
  while (next_scrape_due_ <= now_) {
    scraper_->scrape(static_cast<uint64_t>(next_scrape_due_ * 1e6));
    next_scrape_due_ += scrape_period_;
  }
}

void Simulator::poll_partition_heal() {
  // Cheap falling-edge poll (single bool branch while no cut is open):
  // once a partition drop has been observed, the first event past every
  // scheduled partition window marks the fleet healed.
  if (partition_open_ && !faults_.any_partition_active(now_)) {
    partition_open_ = false;
    TENET_EVENT(kPartitionHeal, 0);
  }
}

size_t Simulator::run(size_t max_events) {
  const size_t cap = max_events != 0 ? max_events
                     : run_cap_ != 0 ? run_cap_
                                     : static_cast<size_t>(-1);
  size_t n = 0;
  while (n < cap && step()) ++n;
  if (n == cap && !queue_.empty()) {
    TENET_COUNT("net.run.cap_hit");
    TENET_EVENT(kRunCapHit, 0, cap, queue_.size());
    std::fprintf(stderr,
                 "[netsim] run() hit the %zu-event safety cap with %zu events "
                 "still queued; raise set_run_cap() for larger scenarios\n",
                 cap, queue_.size());
    throw std::runtime_error("Simulator::run: event cap hit (livelock?)");
  }
  return n;
}

TrafficStats& Simulator::stats_ref(NodeId id) {
  if (id < stats_.size()) return stats_[id];
  return stats_overflow_.insert(id).value;
}

const TrafficStats& Simulator::stats(NodeId node) const {
  static const TrafficStats kEmpty;
  if (node < stats_.size()) return stats_[node];
  const TrafficStats* s = stats_overflow_.find(node);
  return s != nullptr ? *s : kEmpty;
}

Node* Simulator::find_node(NodeId id) const {
  return id < nodes_.size() ? nodes_[id] : nullptr;
}

const std::string& Simulator::node_name(NodeId id) const {
  static const std::string kUnknown = "<unknown>";
  if (id == kInvalidNode || id >= names_.size()) return kUnknown;
  return names_[id];
}

}  // namespace tenet::netsim
