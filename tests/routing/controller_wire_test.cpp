// Hostile bytes from attested peers of the inter-domain controller (§3.1):
// an AS-local controller's register and verify messages and a shard
// peer's replication entry. A message its decoder rejects must change no
// controller state and draw no answer.
#include <gtest/gtest.h>

#include <memory>

#include "core/node.h"
#include "core/open_project.h"
#include "core/replication.h"
#include "routing/apps.h"

namespace tenet::routing {
namespace {

enum RawControl : uint32_t {
  kRawSend = 1,      // u32 peer | LV message
  kRawReceived = 2,  // -> u64 count | last message received
};

/// An attested peer that sends whatever message the test hands it and
/// keeps the last one it received.
class RawPeer final : public core::SecureApp {
 public:
  using SecureApp::SecureApp;

  void on_secure_message(core::Ctx&, netsim::NodeId,
                         crypto::BytesView payload) override {
    ++received_;
    last_.assign(payload.begin(), payload.end());
  }
  crypto::Bytes on_control(core::Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override {
    if (subfn == kRawSend) {
      ctx.send_secure(crypto::read_u32(arg, 0), arg.subspan(8));
      return {};
    }
    crypto::Bytes out;
    crypto::append_u64(out, received_);
    out.insert(out.end(), last_.begin(), last_.end());
    return out;
  }

 private:
  uint64_t received_ = 0;
  crypto::Bytes last_;
};

/// AS 1 is a customer of AS 2.
RoutingPolicy policy_of(AsNumber asn) {
  RoutingPolicy p;
  p.asn = asn;
  p.neighbor_rel[asn == 1 ? 2 : 1] =
      asn == 1 ? Relationship::kProvider : Relationship::kCustomer;
  p.prefixes = {asn};
  return p;
}

/// One inter-domain controller expecting two ASes, two raw AS peers and a
/// raw peer running the controller's own image (a shard member).
class ControllerRig {
 public:
  ControllerRig() {
    const sgx::Authority* auth = &authority_;
    sgx::AttestationConfig controller_cfg = as_project_.policy(true);
    controller_cfg.expect.also_accept(controller_project_.measurement());
    controller_cfg.expect.mr_signer.reset();
    sgx::EnclaveImage controller_image = controller_project_.build();
    controller_image.factory = [auth, controller_cfg] {
      return std::make_unique<InterDomainControllerApp>(*auth, controller_cfg,
                                                        2);
    };
    controller_ = start(controller_project_, "controller", controller_image);

    const sgx::AttestationConfig peer_cfg = controller_project_.policy(true);
    const auto raw = [auth, peer_cfg] {
      return std::make_unique<RawPeer>(*auth, peer_cfg);
    };
    sgx::EnclaveImage as_image = as_project_.build();
    as_image.factory = raw;
    for (const char* name : {"as-1", "as-2"}) {
      ases_.push_back(start(as_project_, name, as_image));
      ases_.back()->connect_to(controller_->id());
    }
    sgx::EnclaveImage shard_image = controller_project_.build();
    shard_image.factory = raw;
    shard_ = start(controller_project_, "shard-1", shard_image);
    sim_.run();
  }

  /// Sends `msg` from `from` to the controller and runs to quiescence.
  void send(core::EnclaveNode& from, crypto::BytesView msg) {
    crypto::Bytes arg;
    crypto::append_u32(arg, controller_->id());
    crypto::append_lv(arg, msg);
    (void)from.control(kRawSend, arg);
    sim_.run();
  }
  void send_with_trailing_byte(core::EnclaveNode& from, crypto::Bytes msg) {
    msg.push_back(0);
    send(from, msg);
  }

  /// AS `i` + 1 submits its policy; both submitted, the controller computes.
  void submit_policies() {
    for (size_t i = 0; i < ases_.size(); ++i) {
      send(*ases_[i], encode_policy_submission(policy_of(AsNumber(i + 1))));
    }
  }

  /// The controller joins a two-member group with the raw shard peer.
  void configure_shards() {
    core::ShardConfig cfg;
    cfg.self = 0;
    cfg.members = {core::ShardMember{0, controller_->id()},
                   core::ShardMember{1, shard_->id()}};
    (void)controller_->control(kCtlConfigureShard, cfg.serialize());
    sim_.run();
  }

  uint64_t policies_received() {
    return crypto::read_u64(controller_->control(kCtlPoliciesReceived), 0);
  }
  uint64_t received(core::EnclaveNode& node) {
    return crypto::read_u64(node.control(kRawReceived), 0);
  }
  VerifyStatus last_verdict(core::EnclaveNode& node) {
    const crypto::Bytes out = node.control(kRawReceived);
    const crypto::BytesView msg = crypto::BytesView(out).subspan(8);
    EXPECT_EQ(message_type(msg), MsgType::kVerifyResponse);
    return decode_verify_response(message_body(msg)).status;
  }

  core::EnclaveNode& as(size_t i) { return *ases_.at(i); }
  core::EnclaveNode& shard() { return *shard_; }

 private:
  std::unique_ptr<core::EnclaveNode> start(const core::OpenProject& project,
                                           const std::string& name,
                                           const sgx::EnclaveImage& image) {
    auto node = std::make_unique<core::EnclaveNode>(
        sim_, authority_, name, project.foundation(), image);
    node->start();
    return node;
  }

  netsim::Simulator sim_;
  sgx::Authority authority_;
  const core::OpenProject controller_project_{"controller", "controller\n",
                                              nullptr};
  const core::OpenProject as_project_{"as-local", "as-local\n", nullptr};
  std::unique_ptr<core::EnclaveNode> controller_;
  std::vector<std::unique_ptr<core::EnclaveNode>> ases_;
  std::unique_ptr<core::EnclaveNode> shard_;
};

const Predicate kPromise = Predicate::most_preferred_via(2, 1, 1);

TEST(ControllerWire, RegisterWithATrailingByteRegistersNothing) {
  ControllerRig rig;
  rig.submit_policies();
  rig.send_with_trailing_byte(rig.as(0),
                              encode_register_predicate(5, kPromise));
  rig.send(rig.as(1), encode_register_predicate(5, kPromise));
  rig.send(rig.as(0), encode_verify_request(5));
  EXPECT_EQ(rig.last_verdict(rig.as(0)), VerifyStatus::kNotAgreed);

  // The exact message registers AS 1 too.
  rig.send(rig.as(0), encode_register_predicate(5, kPromise));
  rig.send(rig.as(0), encode_verify_request(5));
  EXPECT_EQ(rig.last_verdict(rig.as(0)), VerifyStatus::kHolds);
}

TEST(ControllerWire, VerifyWithATrailingByteIsNotAnswered) {
  ControllerRig rig;
  rig.submit_policies();
  rig.send(rig.as(0), encode_register_predicate(6, kPromise));
  rig.send(rig.as(1), encode_register_predicate(6, kPromise));
  const uint64_t before = rig.received(rig.as(0));  // its route table
  rig.send_with_trailing_byte(rig.as(0), encode_verify_request(6));
  EXPECT_EQ(rig.received(rig.as(0)), before);

  rig.send(rig.as(0), encode_verify_request(6));
  EXPECT_EQ(rig.received(rig.as(0)), before + 1);
  EXPECT_EQ(rig.last_verdict(rig.as(0)), VerifyStatus::kHolds);
}

TEST(ControllerWire, EmptyMessageIsDropped) {
  ControllerRig rig;
  rig.send(rig.as(0), crypto::Bytes{});
  rig.submit_policies();
  EXPECT_EQ(rig.policies_received(), 2u);
}

TEST(ControllerWire, ReplicationEntryWithATrailingByteIsNotStored) {
  ControllerRig rig;
  rig.configure_shards();
  crypto::Bytes entry;
  append_binding(entry, netsim::kInvalidNode, policy_of(1));
  crypto::Bytes padded = entry;
  padded.push_back(0);
  rig.send(rig.shard(), core::encode_shard_append(1, 1, 1, 1, 0, padded));
  EXPECT_EQ(rig.policies_received(), 0u);

  rig.send(rig.shard(), core::encode_shard_append(1, 2, 1, 1, 0, entry));
  EXPECT_EQ(rig.policies_received(), 1u);
}

}  // namespace
}  // namespace tenet::routing
