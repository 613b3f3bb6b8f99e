#include "routing/predicates.h"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace tenet::routing {

Predicate Predicate::most_preferred_via(AsNumber subject_b, AsNumber via_a,
                                        Prefix prefix) {
  Predicate p;
  p.kind_ = Kind::kMostPreferredVia;
  p.subject_ = subject_b;
  p.object_ = via_a;
  p.prefix_ = prefix;
  return p;
}

Predicate Predicate::received_from(AsNumber subject_b, AsNumber from_a,
                                   Prefix prefix) {
  Predicate p;
  p.kind_ = Kind::kReceivedFrom;
  p.subject_ = subject_b;
  p.object_ = from_a;
  p.prefix_ = prefix;
  return p;
}

Predicate Predicate::path_length_at_most(AsNumber subject_b, Prefix prefix,
                                         uint32_t k) {
  Predicate p;
  p.kind_ = Kind::kPathLengthAtMost;
  p.subject_ = subject_b;
  p.prefix_ = prefix;
  p.k_ = k;
  return p;
}

Predicate Predicate::route_traverses(AsNumber subject_b, Prefix prefix,
                                     AsNumber through) {
  Predicate p;
  p.kind_ = Kind::kRouteTraverses;
  p.subject_ = subject_b;
  p.object_ = through;
  p.prefix_ = prefix;
  return p;
}

Predicate Predicate::uses_customer_route(AsNumber subject_b, Prefix prefix) {
  Predicate p;
  p.kind_ = Kind::kUsesCustomerRoute;
  p.subject_ = subject_b;
  p.prefix_ = prefix;
  return p;
}

Predicate Predicate::land(Predicate a, Predicate b) {
  Predicate p;
  p.kind_ = Kind::kAnd;
  p.children_.push_back(std::move(a));
  p.children_.push_back(std::move(b));
  return p;
}

Predicate Predicate::lor(Predicate a, Predicate b) {
  Predicate p;
  p.kind_ = Kind::kOr;
  p.children_.push_back(std::move(a));
  p.children_.push_back(std::move(b));
  return p;
}

Predicate Predicate::lnot(Predicate a) {
  Predicate p;
  p.kind_ = Kind::kNot;
  p.children_.push_back(std::move(a));
  return p;
}

bool Predicate::evaluate(const ComputationResult& result) const {
  switch (kind_) {
    case Kind::kMostPreferredVia: {
      const Route* chosen = result.route_of(subject_, prefix_);
      return chosen != nullptr && chosen->next_hop() == object_;
    }
    case Kind::kReceivedFrom: {
      const auto it = result.candidates.find(subject_);
      if (it == result.candidates.end()) return false;
      const auto jt = it->second.find(prefix_);
      if (jt == it->second.end()) return false;
      return std::any_of(jt->second.begin(), jt->second.end(),
                         [this](const Route& r) {
                           return r.next_hop() == object_;
                         });
    }
    case Kind::kPathLengthAtMost: {
      const Route* chosen = result.route_of(subject_, prefix_);
      return chosen != nullptr && chosen->path_length() <= k_;
    }
    case Kind::kRouteTraverses: {
      const Route* chosen = result.route_of(subject_, prefix_);
      return chosen != nullptr &&
             std::find(chosen->as_path.begin(), chosen->as_path.end(),
                       object_) != chosen->as_path.end();
    }
    case Kind::kUsesCustomerRoute: {
      const Route* chosen = result.route_of(subject_, prefix_);
      return chosen != nullptr &&
             chosen->learned_from == Relationship::kCustomer;
    }
    case Kind::kAnd:
      return children_[0].evaluate(result) && children_[1].evaluate(result);
    case Kind::kOr:
      return children_[0].evaluate(result) || children_[1].evaluate(result);
    case Kind::kNot:
      return !children_[0].evaluate(result);
  }
  return false;
}

std::vector<AsNumber> Predicate::parties() const {
  std::set<AsNumber> set;
  std::vector<const Predicate*> stack{this};
  while (!stack.empty()) {
    const Predicate* p = stack.back();
    stack.pop_back();
    if (p->subject_ != 0) set.insert(p->subject_);
    if (p->object_ != 0) set.insert(p->object_);
    for (const Predicate& c : p->children_) stack.push_back(&c);
  }
  return {set.begin(), set.end()};
}

crypto::Bytes Predicate::serialize() const {
  crypto::Bytes out;
  out.push_back(static_cast<uint8_t>(kind_));
  crypto::append_u32(out, subject_);
  crypto::append_u32(out, object_);
  crypto::append_u32(out, prefix_);
  crypto::append_u32(out, k_);
  crypto::append_u32(out, static_cast<uint32_t>(children_.size()));
  for (const Predicate& c : children_) crypto::append_lv(out, c.serialize());
  return out;
}

Predicate Predicate::deserialize(crypto::BytesView wire) {
  return decode(wire, kMaxDepth);
}

Predicate Predicate::decode(crypto::BytesView wire, int levels) {
  crypto::Reader r(wire);
  Predicate p;
  const uint8_t kind = r.u8();
  switch (static_cast<Kind>(kind)) {
    case Kind::kMostPreferredVia:
    case Kind::kReceivedFrom:
    case Kind::kPathLengthAtMost:
    case Kind::kRouteTraverses:
    case Kind::kUsesCustomerRoute:
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      break;
    default:
      throw std::invalid_argument("Predicate: unknown kind");
  }
  p.kind_ = static_cast<Kind>(kind);
  p.subject_ = r.u32();
  p.object_ = r.u32();
  p.prefix_ = r.u32();
  p.k_ = r.u32();
  const uint32_t n = r.u32();
  const uint32_t expected = p.kind_ == Kind::kAnd || p.kind_ == Kind::kOr ? 2
                            : p.kind_ == Kind::kNot                       ? 1
                                                                          : 0;
  if (n != expected) throw std::invalid_argument("Predicate: bad arity");
  if (n > 0 && levels <= 1) {
    throw std::invalid_argument("Predicate: nested too deep");
  }
  for (uint32_t i = 0; i < n; ++i) {
    p.children_.push_back(decode(r.lv_view(), levels - 1));
  }
  if (!r.done()) throw std::invalid_argument("Predicate: trailing bytes");
  return p;
}

bool Predicate::equals(const Predicate& other) const {
  return serialize() == other.serialize();
}

}  // namespace tenet::routing
