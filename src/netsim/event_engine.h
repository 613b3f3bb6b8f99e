// Event storage and scheduling for the internet-scale simulator core.
//
// Two pieces (DESIGN.md §12):
//
//  * MessagePool — a slab allocator for in-flight events. Every queued
//    message or timer lives in one pool slot reached by index, recycled
//    through a free list, so steady-state event traffic performs no heap
//    allocation. The slab grows in fixed-size chunks rather than by
//    reallocation, so bursts (an injector posting 100k+ messages) never
//    trigger an O(live-events) copy and slot references stay stable. Slots carry a generation counter that is encoded into
//    TimerIds, giving O(1) timer cancellation with no lookup structures:
//    a TimerId names (generation, slot), and a cancel is valid exactly
//    when the slot still holds that generation. A side slab of refcounted
//    payload buffers lets fault-injected duplicates share one payload
//    (the copy is deferred to delivery, and the last reference is moved,
//    not copied).
//
//  * CalendarQueue — a calendar-queue scheduler (Brown 1988) with O(1)
//    amortized push/pop, replacing the binary heap. Time is divided into
//    windows of `width_` seconds; each event's window number (`vb`, for
//    virtual bucket) indexes a power-of-two bucket array. The window
//    currently being drained is kept extracted in `ready_`, sorted
//    descending so the minimum is popped from the back.
//
// Determinism argument: events are delivered in exactly (time, seq)
// order. Within a window, `ready_` is explicitly sorted by (time, seq).
// Across windows: floor(t / width) is monotone in t, so every event in
// window V strictly precedes every event in any window W > V; windows
// are compared as integers (the `vb` stored with each entry), never by
// re-deriving boundaries from floats, so no boundary-rounding case can
// reorder events. Resizing recomputes every vb under the new width
// before any redistribution, preserving the invariant. Hash/bucket
// layout is never iterated in a way that reaches user code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "netsim/message.h"
#include "netsim/small_fn.h"

namespace tenet::netsim {

constexpr uint32_t kNilSlot = 0xffffffffu;

/// One in-flight event: either a message (timer_id == 0) or a timer.
/// Lives in a MessagePool slot from enqueue until the scheduler drains it.
/// Timer callback state (the SmallFn and its captured trace context —
/// ~100 bytes) lives in a separate slab reached through `timer_slot`, so
/// the dominant event population (messages) stays compact and a burst of
/// in-flight messages touches half the memory it otherwise would.
struct PooledEvent {
  double time = 0;
  Message msg;
  TimerId timer_id = 0;  // nonzero marks a timer event
  NodeId timer_owner = kInvalidNode;
  bool cancelled = false;
  /// Callback state in the pool's timer slab; kNilSlot for messages.
  uint32_t timer_slot = kNilSlot;
  /// Refcounted payload in the pool's payload slab (duplicated messages
  /// share one buffer); kNilSlot means the payload is inline in `msg`.
  uint32_t payload_slot = kNilSlot;
  uint32_t gen = 0;  // bumped on acquire; high half of TimerIds
  uint32_t next_free = kNilSlot;
};

class MessagePool {
 public:
  [[nodiscard]] size_t live() const { return live_; }
  [[nodiscard]] size_t capacity() const {
    return chunks_.size() << kChunkShift;
  }

  void reserve(size_t n) {
    while (capacity() < n) add_chunk();
  }

  /// Hands out a recycled (or fresh) slot with a new generation. The slab
  /// grows in fixed-size chunks, so growth never moves existing slots and
  /// PooledEvent references stay stable across acquire().
  [[nodiscard]] uint32_t acquire() {
    uint32_t i;
    if (free_head_ != kNilSlot) {
      i = free_head_;
      free_head_ = slot(i).next_free;
    } else {
      if (next_unused_ == capacity()) add_chunk();
      i = next_unused_++;
    }
    PooledEvent& s = slot(i);
    ++s.gen;
    s.time = 0;
    s.timer_id = 0;
    s.timer_owner = kInvalidNode;
    s.cancelled = false;
    s.timer_slot = kNilSlot;
    s.payload_slot = kNilSlot;
    s.next_free = kNilSlot;
    ++live_;
    return i;
  }

  [[nodiscard]] PooledEvent& slot(uint32_t i) {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  [[nodiscard]] const PooledEvent& slot(uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }

  /// Frees the slot's owned state (payload buffer, callback captures,
  /// shared-payload reference) and returns it to the free list.
  void release(uint32_t i) {
    PooledEvent& s = slot(i);
    s.msg = Message{};
    drop_timer_fn(i);
    if (s.payload_slot != kNilSlot) {
      payload_unref(s.payload_slot);
      s.payload_slot = kNilSlot;
    }
    s.timer_id = 0;
    s.next_free = free_head_;
    free_head_ = i;
    --live_;
  }

  /// Attaches a timer callback (and the trace context captured at
  /// schedule time) to an event slot.
  void set_timer_fn(uint32_t event_slot, SmallFn fn,
                    const telemetry::TraceContext& ctx) {
    uint32_t t;
    if (timer_free_ != kNilSlot) {
      t = timer_free_;
      timer_free_ = timers_[t].next_free;
    } else {
      t = static_cast<uint32_t>(timers_.size());
      timers_.emplace_back();
    }
    timers_[t].fn = std::move(fn);
    timers_[t].ctx = ctx;
    slot(event_slot).timer_slot = t;
  }

  /// Moves the callback out for firing (writing its captured context to
  /// `ctx`) and frees the timer slab entry.
  [[nodiscard]] SmallFn take_timer_fn(uint32_t event_slot,
                                      telemetry::TraceContext& ctx) {
    PooledEvent& s = slot(event_slot);
    TimerSlot& t = timers_[s.timer_slot];
    SmallFn fn = std::move(t.fn);
    ctx = t.ctx;
    free_timer(s.timer_slot);
    s.timer_slot = kNilSlot;
    return fn;
  }

  /// Destroys a pending callback and its captures immediately (cancel
  /// path); a no-op when the slot holds none.
  void drop_timer_fn(uint32_t event_slot) {
    PooledEvent& s = slot(event_slot);
    if (s.timer_slot == kNilSlot) return;
    free_timer(s.timer_slot);
    s.timer_slot = kNilSlot;
  }

  /// Moves `data` into the shared-payload slab with `refs` outstanding
  /// references (one per event copy that will point at it).
  [[nodiscard]] uint32_t payload_share(crypto::Bytes&& data, uint32_t refs) {
    uint32_t i;
    if (payload_free_ != kNilSlot) {
      i = payload_free_;
      payload_free_ = payloads_[i].next_free;
    } else {
      i = static_cast<uint32_t>(payloads_.size());
      payloads_.emplace_back();
    }
    payloads_[i].data = std::move(data);
    payloads_[i].refs = refs;
    return i;
  }

  [[nodiscard]] size_t payload_size(uint32_t i) const {
    return payloads_[i].data.size();
  }

  /// Materializes an event's payload for delivery. A shared payload is
  /// copied while other references remain and moved out on the last one;
  /// an inline payload is always moved. Clears the event's handle.
  [[nodiscard]] crypto::Bytes take_payload(uint32_t event_slot) {
    PooledEvent& s = slot(event_slot);
    if (s.payload_slot == kNilSlot) return std::move(s.msg.payload);
    const uint32_t p = s.payload_slot;
    s.payload_slot = kNilSlot;
    PayloadSlot& ps = payloads_[p];
    if (ps.refs > 1) {
      --ps.refs;
      return ps.data;  // copy: siblings still in flight
    }
    crypto::Bytes out = std::move(ps.data);
    free_payload(p);
    return out;
  }

 private:
  /// 4096 events per chunk: big enough that chunk allocation is rare,
  /// small enough that an idle simulator holds one modest chunk.
  static constexpr uint32_t kChunkShift = 12;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;

  struct PayloadSlot {
    crypto::Bytes data;
    uint32_t refs = 0;
    uint32_t next_free = kNilSlot;
  };

  struct TimerSlot {
    SmallFn fn;
    telemetry::TraceContext ctx{};
    uint32_t next_free = kNilSlot;
  };

  void add_chunk() {
    chunks_.push_back(std::make_unique<PooledEvent[]>(kChunkSize));
  }

  void free_timer(uint32_t t) {
    timers_[t].fn.reset();
    timers_[t].ctx = {};
    timers_[t].next_free = timer_free_;
    timer_free_ = t;
  }

  void payload_unref(uint32_t p) {
    if (--payloads_[p].refs == 0) free_payload(p);
  }

  void free_payload(uint32_t p) {
    payloads_[p].data = crypto::Bytes{};
    payloads_[p].refs = 0;
    payloads_[p].next_free = payload_free_;
    payload_free_ = p;
  }

  std::vector<std::unique_ptr<PooledEvent[]>> chunks_;
  std::vector<PayloadSlot> payloads_;
  std::vector<TimerSlot> timers_;
  uint32_t next_unused_ = 0;  // first never-acquired slot index
  uint32_t free_head_ = kNilSlot;
  uint32_t payload_free_ = kNilSlot;
  uint32_t timer_free_ = kNilSlot;
  size_t live_ = 0;
};

/// Calendar-queue priority scheduler over MessagePool slots, ordered by
/// (time, seq). See the file header for the determinism argument.
class CalendarQueue {
 public:
  CalendarQueue() : buckets_(kInitBuckets), mask_(kInitBuckets - 1) {}

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void push(double time, uint64_t seq, uint32_t slot) {
    const Entry e{time, seq, vbucket(time), slot};
    if (size_ == 0) {
      // Queue went idle: re-anchor the drain window on this event so an
      // arbitrarily long quiet gap costs nothing to skip.
      current_vb_ = e.vb;
      ready_.clear();
      ready_.push_back(e);
      ++size_;
      return;
    }
    if (e.vb <= current_vb_) {
      // Lands in (or before) the window being drained — it must be
      // visible to the very next pop, so insert into the sorted ready
      // list. Entries ahead of it in ready_ are all >= now, so ordering
      // by the true (time, seq) key stays exact.
      ready_.insert(
          std::upper_bound(ready_.begin(), ready_.end(), e, DescOrder{}), e);
      // A ballooning ready window means the width no longer matches the
      // event density (each insert above is O(|ready_|)); redistribute
      // under a gap-derived width as soon as one is known to be smaller.
      if (ready_.size() > kReadyLimit && pop_gap_count_ >= kMinGapSamples) {
        const double ideal = ideal_width();
        if (ideal * 4.0 < width_) {
          pop_gap_sum_ = 0;
          pop_gap_count_ = 0;
          width_override_ = ideal;
          resize(buckets_.size());
        }
      }
    } else {
      buckets_[e.vb & mask_].push_back(e);
    }
    ++size_;
    if (size_ > buckets_.size() * 2) resize(buckets_.size() * 2);
  }

  /// Removes and returns the slot of the (time, seq)-minimum event.
  /// Precondition: !empty().
  uint32_t pop() {
    if (ready_.empty()) advance();
    const Entry e = ready_.back();
    ready_.pop_back();
    --size_;
    note_pop(e.time);
    if (size_ * 8 < buckets_.size() && buckets_.size() > kInitBuckets) {
      resize(buckets_.size() / 2);
    }
    return e.slot;
  }

 private:
  static constexpr size_t kInitBuckets = 256;
  // Width recalibration (Brown 1988 samples dequeue gaps): resize-time
  // estimates alone go stale in steady state, where pushes balance pops
  // and no size threshold ever fires again.
  static constexpr size_t kRecalibPeriod = 1024;  // pops between checks
  static constexpr size_t kMinGapSamples = 16;
  static constexpr size_t kReadyLimit = 2048;  // emergency split trigger

  struct Entry {
    double time;
    uint64_t seq;
    uint64_t vb;  // window number at push time: floor(time / width)
    uint32_t slot;
  };

  /// Descending (time, seq) so the minimum sits at ready_.back().
  struct DescOrder {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  [[nodiscard]] uint64_t vbucket(double time) const {
    if (time <= 0) return 0;
    const double q = time / width_;
    // Far-future times collapse into one window rather than overflowing
    // the cast; within-window order is exact regardless.
    constexpr double kMaxVb = 9.0e18;
    return q >= kMaxVb ? static_cast<uint64_t>(kMaxVb)
                       : static_cast<uint64_t>(q);
  }

  /// Pulls every entry of window `vb` out of its bucket into ready_.
  void collect(uint64_t vb) {
    auto& b = buckets_[vb & mask_];
    for (size_t i = 0; i < b.size();) {
      if (b[i].vb == vb) {
        ready_.push_back(b[i]);
        b[i] = b.back();
        b.pop_back();
      } else {
        ++i;
      }
    }
  }

  /// Moves the drain window forward to the next non-empty one. Scans at
  /// most one full lap of buckets, then jumps straight to the globally
  /// minimal window so sparse queues don't degrade to linear window walks.
  void advance() {
    uint64_t candidate = current_vb_;
    for (size_t lap = 0; lap < buckets_.size(); ++lap) {
      ++candidate;
      collect(candidate);
      if (!ready_.empty()) {
        current_vb_ = candidate;
        std::sort(ready_.begin(), ready_.end(), DescOrder{});
        return;
      }
    }
    candidate = UINT64_MAX;
    for (const auto& b : buckets_) {
      for (const Entry& e : b) candidate = std::min(candidate, e.vb);
    }
    collect(candidate);
    current_vb_ = candidate;
    std::sort(ready_.begin(), ready_.end(), DescOrder{});
  }

  /// Records a dequeue for width calibration. Pop times are monotone, so
  /// the positive gaps sum to the drained span and their mean is the true
  /// event spacing — the one statistic the width must track. Every
  /// kRecalibPeriod pops, rebuild if width has drifted >8x off target.
  /// The trigger depends only on the (deterministic) pop sequence, so
  /// rebuild timing — and thus all internal layout — stays reproducible.
  void note_pop(double t) {
    if (std::isfinite(last_pop_time_) && t > last_pop_time_) {
      pop_gap_sum_ += t - last_pop_time_;
      ++pop_gap_count_;
    }
    last_pop_time_ = t;
    if (--recalib_countdown_ > 0) return;
    recalib_countdown_ = kRecalibPeriod;
    if (pop_gap_count_ < kMinGapSamples) return;
    const double ideal = ideal_width();
    pop_gap_sum_ = 0;
    pop_gap_count_ = 0;
    if (width_ > ideal * 8.0 || ideal > width_ * 8.0) {
      width_override_ = ideal;
      resize(buckets_.size());
    }
  }

  [[nodiscard]] double ideal_width() const {
    return std::clamp(
        3.0 * pop_gap_sum_ / static_cast<double>(pop_gap_count_), 1e-9, 1e6);
  }

  /// Rebuilds with `nbuckets` buckets and a width re-estimated from the
  /// current event population, then re-anchors the drain window on the
  /// minimal occupied window. All vbs are recomputed under the new width.
  void resize(size_t nbuckets) {
    std::vector<Entry> all;
    all.reserve(size_);
    for (auto& b : buckets_) {
      all.insert(all.end(), b.begin(), b.end());
      b.clear();
    }
    all.insert(all.end(), ready_.begin(), ready_.end());
    ready_.clear();
    buckets_.assign(nbuckets, {});
    mask_ = nbuckets - 1;
    if (width_override_ > 0) {
      width_ = width_override_;
      width_override_ = 0;
    } else {
      width_ = estimate_width(all);
    }
    uint64_t min_vb = UINT64_MAX;
    for (Entry& e : all) {
      e.vb = vbucket(e.time);
      min_vb = std::min(min_vb, e.vb);
    }
    current_vb_ = min_vb;
    for (const Entry& e : all) {
      if (e.vb == current_vb_) {
        ready_.push_back(e);
      } else {
        buckets_[e.vb & mask_].push_back(e);
      }
    }
    std::sort(ready_.begin(), ready_.end(), DescOrder{});
  }

  /// Width heuristic: ~3x the typical event spacing, so a window holds a
  /// handful of events. The spacing is the sample's 10th-to-90th
  /// percentile span divided by the share of the *whole population* that
  /// span covers — dividing by the sample size instead would overestimate
  /// spacing by population/sample (the classic way a calendar queue
  /// degenerates into one giant window), and using the full span would
  /// let a few far-future outliers (long timers) stretch it the same
  /// way. Clamped hard — a degenerate sample (all-equal times) keeps the
  /// current width rather than producing 0 or inf.
  [[nodiscard]] double estimate_width(const std::vector<Entry>& all) const {
    constexpr size_t kSample = 64;
    if (all.size() < 2) return width_;
    std::vector<double> times;
    times.reserve(kSample);
    const size_t stride = std::max<size_t>(1, all.size() / kSample);
    for (size_t i = 0; i < all.size() && times.size() < kSample; i += stride) {
      times.push_back(all[i].time);
    }
    std::sort(times.begin(), times.end());
    const size_t trim = times.size() / 10;
    const double lo = times[trim];
    const double hi = times[times.size() - 1 - trim];
    if (!(hi > lo)) return width_;
    const double covered =
        static_cast<double>(all.size()) *
        (static_cast<double>(times.size() - 2 * trim) /
         static_cast<double>(times.size()));
    return std::clamp(3.0 * (hi - lo) / covered, 1e-9, 1e6);
  }

  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> ready_;  // current window, sorted descending
  size_t mask_;
  size_t size_ = 0;
  uint64_t current_vb_ = 0;
  double width_ = 1e-4;
  double last_pop_time_ = -std::numeric_limits<double>::infinity();
  double pop_gap_sum_ = 0;
  size_t pop_gap_count_ = 0;
  size_t recalib_countdown_ = kRecalibPeriod;
  double width_override_ = 0;  // consumed by the next resize when > 0
};

}  // namespace tenet::netsim
