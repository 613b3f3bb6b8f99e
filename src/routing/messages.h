// Wire messages between AS-local controllers and the inter-domain
// controller. The same encodings travel over the attested secure channel
// (SGX deployment) and in cleartext (native baseline) so Table 4 compares
// runtimes, not serialization formats.
#pragma once

#include <vector>

#include "netsim/message.h"
#include "routing/bgp.h"
#include "routing/predicates.h"

namespace tenet::routing {

enum class MsgType : uint8_t {
  kPolicySubmission = 1,    // AS -> controller: RoutingPolicy
  kRouteAdvertisement = 2,  // controller -> AS: that AS's RoutingTable
  kRegisterPredicate = 3,   // AS -> controller: u32 pred_id | predicate
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

/// Peeks the type tag; throws std::invalid_argument on empty input.
MsgType message_type(crypto::BytesView wire);
/// Payload after the tag byte.
crypto::BytesView message_body(crypto::BytesView wire);

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

void append_binding(crypto::Bytes& out, netsim::NodeId node,
                    const RoutingPolicy& policy);
PolicyBinding read_binding(crypto::Reader& r);
/// Reads a whole list before returning any of it, so a caller stores
/// nothing of a list whose tail is malformed.
std::vector<PolicyBinding> read_bindings(crypto::Reader& r);
/// A list that is all of `wire`; throws std::invalid_argument on trailing
/// bytes.
std::vector<PolicyBinding> decode_bindings(crypto::BytesView wire);

}  // namespace tenet::routing
