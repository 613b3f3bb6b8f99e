// Scoped-span tracer with causal request contexts and a pluggable
// virtual clock.
//
// Spans are recorded as Chrome-trace "complete" events (ph:"X") and
// exported as a chrome://tracing / Perfetto-compatible JSON document.
// Timestamps come from an installed clock — the netsim Simulator installs
// its virtual clock on construction — so traces of a scripted run are
// fully deterministic and reproducible across machines. Without a clock,
// a logical tick counter is used (also deterministic). Either way now()
// is strictly monotone: simultaneous simulator events still produce
// properly nested span intervals.
//
// Causal tracing (DESIGN.md §11): every span carries a TraceContext
// (trace_id, span_id, flags). A request origin mints a fresh trace_id via
// TENET_TRACE_ROOT; everything that executes downstream — network
// deliveries, timer firings, deferred switchless ocalls, retransmissions —
// re-installs the originating context with a ContextScope, so the exported
// events reconstruct into one span DAG per request. Ids come from plain
// counters and all state is single-threaded, so a fixed seed produces
// byte-identical trace exports.
//
// Cost attribution: the SGX cost model mirrors every charge into the
// tracer (see TENET_TRACE_COST below), where it lands on the innermost
// open span. Each exported span therefore carries its own Table-1-style
// breakdown (SGX instructions, normal/crypto/paging instructions,
// transitions) as exact self and inclusive deltas: summing all span
// self-costs plus the untraced remainder reproduces the cost-model totals
// to the instruction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace tenet::telemetry {

/// Causal context propagated along a request's journey. trace_id 0 means
/// "no active trace" (spans still record ids for DAG edges, but the
/// analyzer groups requests by nonzero trace_id).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  // the span that anything started under this
                         // context becomes a child of
  uint8_t flags = 0;

  /// The frame is a retransmission of an earlier send in the same trace.
  static constexpr uint8_t kFlagRetx = 1;
  /// Execution was deferred through a switchless ring (the context is the
  /// enqueuing span's, not the draining host's).
  static constexpr uint8_t kFlagDeferred = 2;

  [[nodiscard]] bool empty() const { return trace_id == 0; }
};

/// Per-span instruction-cost vector, mirrored from the SGX cost model
/// (sgx/cost_model.h) while the span is open. All fields are exact
/// integer counts; cycles are derived downstream with the paper's formula.
struct TraceCost {
  uint64_t sgx_user = 0;     // SGX(U) instructions
  uint64_t sgx_priv = 0;     // privileged (launch-class) SGX instructions
  uint64_t normal = 0;       // direct normal instructions (boundary copies,
                             // context switches, dispatch, ring ops, app)
  uint64_t crypto = 0;       // normal instructions from crypto work
  uint64_t paging = 0;       // page-zero / paging normal instructions
  uint64_t transitions = 0;  // EENTER+EEXIT+ERESUME executed

  void add(const TraceCost& o) {
    sgx_user += o.sgx_user;
    sgx_priv += o.sgx_priv;
    normal += o.normal;
    crypto += o.crypto;
    paging += o.paging;
    transitions += o.transitions;
  }
  [[nodiscard]] bool any() const {
    return (sgx_user | sgx_priv | normal | crypto | paging | transitions) != 0;
  }
  bool operator==(const TraceCost&) const = default;
};

/// Category selector for Tracer::charge (one field of TraceCost).
enum class CostKind : uint8_t {
  kSgxUser,
  kSgxPriv,
  kNormal,
  kCrypto,
  kPaging,
  kTransition,
};

class Tracer {
 public:
  /// Microsecond clock; `ctx` identifies the owner so a dying clock source
  /// can uninstall only its own clock.
  using ClockFn = uint64_t (*)(void* ctx);

  void set_clock(ClockFn fn, void* ctx) {
    clock_ = fn;
    clock_ctx_ = ctx;
  }
  /// Uninstalls the clock iff `ctx` is the current owner.
  void clear_clock(void* ctx) {
    if (clock_ctx_ == ctx) {
      clock_ = nullptr;
      clock_ctx_ = nullptr;
    }
  }

  /// Current timestamp in microseconds, strictly monotone per call.
  uint64_t now() {
    const uint64_t raw = clock_ != nullptr ? clock_(clock_ctx_) : last_ + 1;
    last_ = raw > last_ ? raw : last_ + 1;
    return last_;
  }

  /// Non-mutating clock peek: the current time without advancing the
  /// monotone floor. Used by the event log so stamping a fleet event never
  /// perturbs span timestamps (trace exports stay byte-identical with the
  /// event log on or off).
  [[nodiscard]] uint64_t clock_now() const {
    return clock_ != nullptr ? clock_(clock_ctx_) : last_;
  }

  /// Sentinel for "no shard annotation" on a span.
  static constexpr uint64_t kNoShard = UINT64_MAX;

  /// One recorded span. Events with span_id 0 come from the low-level
  /// complete() API and export in the legacy (context-free) format.
  struct Event {
    const char* name;
    const char* cat;
    uint64_t ts;
    uint64_t dur;
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_span_id = 0;
    uint8_t flags = 0;
    uint64_t shard = kNoShard;  // TENET_SPAN_SHARD annotation, if any
    TraceCost self;  // charges while this span was innermost
    TraceCost incl;  // self + all (closed) descendant spans
  };

  /// Records one completed span with no context (legacy API; also used by
  /// counters-only instrumentation). `cat` and `name` must outlive the
  /// tracer (string literals at TENET_SPAN sites).
  void complete(const char* cat, const char* name, uint64_t begin_ts) {
    Event e{};
    e.name = name;
    e.cat = cat;
    e.ts = begin_ts;
    e.dur = now() - begin_ts;
    events_.push_back(e);
  }

  // --- Context + span DAG API (used via the macros below) ---

  [[nodiscard]] const TraceContext& context() const { return context_; }
  void set_context(const TraceContext& ctx) { context_ = ctx; }

  /// State saved by begin_span, consumed by end_span.
  struct SpanHandle {
    uint64_t begin_ts = 0;
    uint64_t span_id = 0;
    TraceContext parent;
    uint8_t flags = 0;
  };

  /// Opens a span: allocates the next span id, pushes a cost frame, and
  /// installs this span as the current context. With `mint_root` and no
  /// active trace, a fresh trace_id is minted (request origin).
  SpanHandle begin_span(bool mint_root);

  /// Closes the span: pops its cost frame (folding the inclusive cost into
  /// the parent frame), records the event, restores the parent context.
  void end_span(const char* cat, const char* name, const SpanHandle& h);

  /// Adds `n` to `kind` on the innermost open span (or the untraced
  /// bucket) and the grand total. Called by the cost-model mirror hooks.
  void charge(CostKind kind, uint64_t n);

  /// Annotates the innermost open span with a shard id, exported as
  /// args.shard so the analyzer can slice cross-shard phases per shard.
  /// No-op with no span open.
  void set_span_shard(uint64_t shard) {
    if (!open_.empty()) open_.back().shard = shard;
  }

  [[nodiscard]] size_t event_count() const { return events_.size(); }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  /// Every charge() since the last reset (== sum of all span self costs
  /// plus cost_untraced, closed spans and open frames alike).
  [[nodiscard]] const TraceCost& cost_total() const { return total_; }
  /// Charges that arrived with no span open.
  [[nodiscard]] const TraceCost& cost_untraced() const { return untraced_; }

  /// Chrome-trace JSON ({"traceEvents":[...]}), loadable in
  /// chrome://tracing or https://ui.perfetto.dev. Span/track names are
  /// JSON-escaped; span events carry args.{trace,span,parent,flags} plus
  /// nonzero self/incl cost vectors.
  [[nodiscard]] std::string chrome_json() const;

  /// Drops recorded events, rewinds the logical clock, and resets all
  /// context/cost state (ids restart from 1).
  void reset() {
    events_.clear();
    last_ = 0;
    context_ = TraceContext{};
    next_trace_id_ = 0;
    next_span_id_ = 0;
    open_.clear();
    untraced_ = TraceCost{};
    total_ = TraceCost{};
  }

 private:
  struct OpenSpan {
    TraceCost self;
    TraceCost child_incl;
    uint64_t shard = kNoShard;
  };

  std::vector<Event> events_;
  uint64_t last_ = 0;
  ClockFn clock_ = nullptr;
  void* clock_ctx_ = nullptr;
  TraceContext context_;
  uint64_t next_trace_id_ = 0;
  uint64_t next_span_id_ = 0;
  std::vector<OpenSpan> open_;
  TraceCost untraced_;
  TraceCost total_;
};

/// Process-wide tracer used by TENET_SPAN.
Tracer& tracer();

/// RAII span: opens at construction, records a complete event at scope
/// exit. Inert (two loads, one branch) when telemetry is disabled; spans
/// started while enabled still close correctly if telemetry is switched
/// off mid-scope. With `mint_root`, starts a new trace when none is
/// active (request origin).
class SpanScope {
 public:
  SpanScope(const char* cat, const char* name, bool mint_root = false)
      : cat_(cat), name_(name), active_(enabled()) {
    if (active_) handle_ = tracer().begin_span(mint_root);
  }
  ~SpanScope() {
    if (active_) tracer().end_span(cat_, name_, handle_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* cat_;
  const char* name_;
  Tracer::SpanHandle handle_;
  bool active_;
};

/// RAII context install: everything in scope (spans opened, messages
/// posted, costs charged to spans) runs under `ctx` with `extra_flags`
/// OR-ed in. Restores the previous context on exit. Used at the replay
/// points of a request's journey: message delivery, timer firing,
/// switchless drain, retransmission.
class ContextScope {
 public:
  explicit ContextScope(const TraceContext& ctx, uint8_t extra_flags = 0)
      : active_(enabled()) {
    if (active_) {
      prev_ = tracer().context();
      TraceContext next = ctx;
      next.flags |= extra_flags;
      tracer().set_context(next);
    }
  }
  ~ContextScope() {
    if (active_) tracer().set_context(prev_);
  }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext prev_;
  bool active_;
};

}  // namespace tenet::telemetry

#if TENET_TELEMETRY_ENABLED
#define TENET_SPAN_CAT_(a, b) a##b
#define TENET_SPAN_NAME_(line) TENET_SPAN_CAT_(tenet_tlm_span_, line)
#define TENET_SPAN(cat, name) \
  ::tenet::telemetry::SpanScope TENET_SPAN_NAME_(__LINE__) { (cat), (name) }
/// Request-origin span: mints a fresh trace_id when no trace is active,
/// so everything causally downstream shares it.
#define TENET_TRACE_ROOT(cat, name)                     \
  ::tenet::telemetry::SpanScope TENET_SPAN_NAME_(       \
      __LINE__) {                                       \
    (cat), (name), /*mint_root=*/true                   \
  }
/// Re-installs a previously captured context for the current scope.
#define TENET_TRACE_CONTEXT(ctx) \
  ::tenet::telemetry::ContextScope TENET_SPAN_NAME_(__LINE__) { (ctx) }
/// Same, with extra TraceContext flags OR-ed in (e.g. kFlagRetx).
#define TENET_TRACE_CONTEXT_FLAGS(ctx, flags)                   \
  ::tenet::telemetry::ContextScope TENET_SPAN_NAME_(__LINE__) { \
    (ctx), (flags)                                              \
  }
/// Captures the current context into `dst` (a TraceContext lvalue).
#define TENET_TRACE_CAPTURE(dst)                             \
  do {                                                       \
    if (::tenet::telemetry::enabled()) {                     \
      (dst) = ::tenet::telemetry::tracer().context();        \
    }                                                        \
  } while (0)
/// Mirrors one cost-model charge onto the innermost open span.
#define TENET_TRACE_COST(kind, n)                            \
  do {                                                       \
    if (::tenet::telemetry::enabled()) {                     \
      ::tenet::telemetry::tracer().charge((kind), (n));      \
    }                                                        \
  } while (0)
/// Tags the innermost open span with a shard id (args.shard in the
/// export) so cross-shard phases slice per shard in tools/analyze.py.
#define TENET_SPAN_SHARD(id)                                 \
  do {                                                       \
    if (::tenet::telemetry::enabled()) {                     \
      ::tenet::telemetry::tracer().set_span_shard(id);       \
    }                                                        \
  } while (0)
#else
#define TENET_SPAN(cat, name) ((void)0)
#define TENET_TRACE_ROOT(cat, name) ((void)0)
#define TENET_TRACE_CONTEXT(ctx) ((void)0)
#define TENET_TRACE_CONTEXT_FLAGS(ctx, flags) ((void)0)
#define TENET_TRACE_CAPTURE(dst) ((void)0)
#define TENET_TRACE_COST(kind, n) ((void)0)
#define TENET_SPAN_SHARD(id) ((void)0)
#endif
