#include "telemetry/trace.h"

namespace tenet::telemetry {

namespace {

void bump(TraceCost& c, CostKind kind, uint64_t n) {
  switch (kind) {
    case CostKind::kSgxUser: c.sgx_user += n; break;
    case CostKind::kSgxPriv: c.sgx_priv += n; break;
    case CostKind::kNormal: c.normal += n; break;
    case CostKind::kCrypto: c.crypto += n; break;
    case CostKind::kPaging: c.paging += n; break;
    case CostKind::kTransition: c.transitions += n; break;
  }
}

void append_cost(std::string& out, const char* key, const TraceCost& c) {
  out += ",\"";
  out += key;
  out += "\":{\"sgx\":";
  out += std::to_string(c.sgx_user);
  out += ",\"priv\":";
  out += std::to_string(c.sgx_priv);
  out += ",\"norm\":";
  out += std::to_string(c.normal);
  out += ",\"crypto\":";
  out += std::to_string(c.crypto);
  out += ",\"paging\":";
  out += std::to_string(c.paging);
  out += ",\"trans\":";
  out += std::to_string(c.transitions);
  out += '}';
}

}  // namespace

Tracer::SpanHandle Tracer::begin_span(bool mint_root) {
  SpanHandle h;
  h.begin_ts = now();
  h.parent = context_;
  h.span_id = ++next_span_id_;
  uint64_t trace = context_.trace_id;
  if (mint_root && trace == 0) trace = ++next_trace_id_;
  context_ = TraceContext{trace, h.span_id, context_.flags};
  h.flags = context_.flags;
  open_.push_back(OpenSpan{});
  return h;
}

void Tracer::end_span(const char* cat, const char* name, const SpanHandle& h) {
  TraceCost self;
  TraceCost incl;
  uint64_t shard = kNoShard;
  if (!open_.empty()) {
    self = open_.back().self;
    incl = self;
    incl.add(open_.back().child_incl);
    shard = open_.back().shard;
    open_.pop_back();
    if (!open_.empty()) open_.back().child_incl.add(incl);
  }
  Event e{};
  e.name = name;
  e.cat = cat;
  e.ts = h.begin_ts;
  e.dur = now() - h.begin_ts;
  e.trace_id = context_.trace_id;
  e.span_id = h.span_id;
  e.parent_span_id = h.parent.span_id;
  e.flags = h.flags;
  e.shard = shard;
  e.self = self;
  e.incl = incl;
  events_.push_back(e);
  context_ = h.parent;
}

void Tracer::charge(CostKind kind, uint64_t n) {
  if (n == 0) return;
  bump(open_.empty() ? untraced_ : open_.back().self, kind, n);
  bump(total_, kind, n);
}

std::string Tracer::chrome_json() const {
  // The trace viewer sorts by ts itself; we emit in recording order
  // (which is span-*close* order, inner spans before outer ones).
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    detail::append_json_escaped(out, e.name);
    out += ",\"cat\":";
    detail::append_json_escaped(out, e.cat);
    out += ",\"ph\":\"X\",\"ts\":";
    out += std::to_string(e.ts);
    out += ",\"dur\":";
    out += std::to_string(e.dur);
    out += ",\"pid\":1,\"tid\":1";
    // Span events (from SpanScope) carry the causal context and the exact
    // cost deltas; span_id 0 events come from the raw complete() API and
    // keep the context-free shape.
    if (e.span_id != 0) {
      out += ",\"args\":{\"trace\":";
      out += std::to_string(e.trace_id);
      out += ",\"span\":";
      out += std::to_string(e.span_id);
      out += ",\"parent\":";
      out += std::to_string(e.parent_span_id);
      out += ",\"flags\":";
      out += std::to_string(e.flags);
      // Shard annotation only when set, so unannotated traces stay
      // byte-identical to pre-annotation captures (golden_trace.json).
      if (e.shard != kNoShard) {
        out += ",\"shard\":";
        out += std::to_string(e.shard);
      }
      if (e.self.any()) append_cost(out, "self", e.self);
      if (e.incl.any() && !(e.incl == e.self)) append_cost(out, "incl", e.incl);
      out += '}';
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"";
  // Grand totals for exact cross-checks by tools/analyze.py: the sum
  // of all span self-costs plus the untraced remainder must reproduce
  // costTotal to the instruction. Omitted when no cost was ever charged
  // (keeps pre-tracing captures byte-identical).
  if (total_.any()) {
    std::string totals;
    append_cost(totals, "costTotal", total_);
    append_cost(totals, "costUntraced", untraced_);
    out += ",\"otherData\":{";
    out.append(totals, 1, std::string::npos);  // drop the leading comma
    out += '}';
  }
  out += '}';
  return out;
}

Tracer& tracer() {
  static Tracer* t = new Tracer();  // leaked, like the registry
  return *t;
}

}  // namespace tenet::telemetry
