// Wire messages of the §3.1 controllers: between AS-local controllers and
// the inter-domain controller, and between the controller's shards. The
// AS <-> controller encodings travel over the attested secure channel (SGX
// deployment) and in cleartext (native baseline) so Table 4 compares
// runtimes, not serialization formats.
//
// Every controller message has its one encoder and its one decoder here;
// the Route, RoutingPolicy and Predicate layouts inside them are those
// types' own serialize/deserialize. A decoder accepts exactly the bytes
// its encoder can write and throws a std::logic_error on anything else
// (std::out_of_range for a short input, std::invalid_argument otherwise),
// so a caller that catches it has stored nothing.
#pragma once

#include <exception>
#include <map>
#include <optional>
#include <vector>

#include "netsim/message.h"
#include "routing/bgp.h"
#include "routing/predicates.h"

namespace tenet::routing {

enum class MsgType : uint8_t {
  kPolicySubmission = 1,    // AS -> controller: RoutingPolicy
  kRouteAdvertisement = 2,  // controller -> AS: that AS's RoutingTable
  kRegisterPredicate = 3,   // AS -> controller: u32 pred_id | LV predicate
  kVerifyRequest = 4,       // AS -> controller: u32 pred_id
  kVerifyResponse = 5,      // controller -> AS: u32 pred_id | u8 status
};

/// kVerifyResponse status byte.
enum class VerifyStatus : uint8_t {
  kHolds = 1,          // predicate evaluated true
  kViolated = 2,       // predicate evaluated false — promise broken
  kNotAgreed = 3,      // the two parties have not both registered it
  kNotReady = 4,       // routes not computed yet
  kNotAParty = 5,      // requester is not covered by the predicate
};

crypto::Bytes encode_policy_submission(const RoutingPolicy& policy);
crypto::Bytes encode_route_advertisement(const RoutingTable& table);
crypto::Bytes encode_register_predicate(uint32_t pred_id, const Predicate& p);
crypto::Bytes encode_verify_request(uint32_t pred_id);
crypto::Bytes encode_verify_response(uint32_t pred_id, VerifyStatus status);

/// `decode(wire)`, or nullopt when it throws: the caller drops the message
/// and has stored nothing of it.
template <typename T>
std::optional<T> decode_or_drop(T (*decode)(crypto::BytesView),
                                crypto::BytesView wire) {
  try {
    return decode(wire);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Peeks the type tag. An empty message reads as tag 0, which no message
/// uses, so a dispatcher drops it like any unknown tag.
MsgType message_type(crypto::BytesView wire);
/// Payload after the tag byte.
crypto::BytesView message_body(crypto::BytesView wire);

/// kRegisterPredicate's body, which is also kCtlRegisterPredicate's host
/// argument.
struct PredicateRegistration {
  uint32_t pred_id;
  Predicate predicate;
};
PredicateRegistration decode_register_predicate(crypto::BytesView body);
/// kVerifyRequest's body: the predicate id.
uint32_t decode_verify_request(crypto::BytesView body);
/// kVerifyResponse's body, which is also kCtlLastVerdict's answer.
struct VerifyResponse {
  uint32_t pred_id = 0;
  VerifyStatus status = VerifyStatus::kNotReady;
};
VerifyResponse decode_verify_response(crypto::BytesView body);

/// A route list, `u32 n | n × LV route`, in ascending prefix order: one
/// AS's table (kRouteAdvertisement's body, kCtlGetOwnTable's answer).
crypto::Bytes encode_routing_table(const RoutingTable& table);
RoutingTable decode_routing_table(crypto::BytesView wire);

/// One AS's binding in the sharded controller: the node that speaks for
/// the AS and its policy, encoded `u32 node | LV policy`. A replication
/// entry is one binding; a policy flood, the shard snapshot and the
/// checkpoint carry a list, `u32 n | n × binding`.
struct PolicyBinding {
  netsim::NodeId node = netsim::kInvalidNode;
  RoutingPolicy policy;
};
/// A binding to encode, by reference.
struct BindingRef {
  netsim::NodeId node;
  const RoutingPolicy& policy;
};

/// A replication entry.
void append_binding(crypto::Bytes& out, netsim::NodeId node,
                    const RoutingPolicy& policy);
PolicyBinding decode_binding(crypto::BytesView wire);
/// The shard snapshot. The decoders of every list read the whole list
/// before returning any of it, so a caller stores nothing of a list whose
/// tail is malformed.
crypto::Bytes encode_bindings(const std::vector<BindingRef>& bindings);
std::vector<PolicyBinding> decode_bindings(crypto::BytesView wire);

/// The controller's checkpoint: the binding list, then `u8 was_sharded`.
struct Checkpoint {
  std::vector<PolicyBinding> bindings;
  bool was_sharded = false;
};
crypto::Bytes encode_checkpoint(const std::vector<BindingRef>& bindings,
                                bool was_sharded);
Checkpoint decode_checkpoint(crypto::BytesView wire);

/// Cross-shard application messages (inner payloads of core::kShardApp),
/// told apart by their first byte. Each decoder rejects the other's tag.
enum class AggMsg : uint8_t {
  kPolicy = 1,   // u8 tag | binding list: admissions flooded to every replica
  kPartial = 3,  // u8 tag | u32 d | d × u32 down shard | u32 n | n × (u32 asn
                 //   | route list chosen | route list candidates)
};
/// Peeks the tag; an empty message reads as tag 0, which no message uses.
AggMsg agg_type(crypto::BytesView inner);

crypto::Bytes encode_policy_flood(const std::vector<BindingRef>& bindings);
std::vector<PolicyBinding> decode_policy_flood(crypto::BytesView inner);

/// One sender-shard's contribution to one fronted AS: the rows (and
/// candidate routes) for the prefixes that shard's slice covered.
struct PartialRows {
  RoutingTable chosen;
  std::map<Prefix, std::vector<Route>> candidates;
};
/// A kPartial message. Its sender is the member the authenticated direct
/// frame came from. `down` is the live set the sender dealt its origins
/// (and fronted ASes) over, written as the configured members it counted
/// down, in ascending order: a receiver merges the partial only while its
/// own view counts the same members down.
struct Partial {
  std::vector<uint32_t> down;
  std::map<AsNumber, PartialRows> rows;
};
/// Appends the kPartial message carrying `slice`'s rows for each AS in
/// `fronted`. `down` and `fronted` must be strictly ascending. The
/// candidates of one AS are one route list, prefix by prefix.
void append_partial(crypto::Bytes& out, const std::vector<uint32_t>& down,
                    const std::vector<AsNumber>& fronted,
                    const ComputationResult& slice);
/// Rejects down members or ASes that are not strictly ascending, chosen
/// rows whose prefixes are not strictly ascending and candidates whose
/// prefixes descend.
Partial decode_partial(crypto::BytesView inner);

}  // namespace tenet::routing
