#include "core/secure_app.h"

#include <gtest/gtest.h>

#include "core/node.h"
#include "core/open_project.h"
#include "core/ports.h"
#include "sgx/adversary.h"

namespace tenet::core {
namespace {

/// Minimal application over the core framework: stores received secure
/// messages; control subfn 1 sends a secure message {u32 peer | LV text}.
class ChatApp final : public SecureApp {
 public:
  using SecureApp::SecureApp;

  void on_peer_attested(Ctx&, netsim::NodeId peer) override {
    attested_events.push_back(peer);
  }
  void on_secure_message(Ctx&, netsim::NodeId peer,
                         crypto::BytesView payload) override {
    inbox.emplace_back(peer, crypto::to_string(payload));
  }
  void on_plain_message(Ctx&, netsim::NodeId peer,
                        crypto::BytesView payload) override {
    plain_inbox.emplace_back(peer, crypto::to_string(payload));
  }
  crypto::Bytes on_control(Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override {
    if (subfn == 1) {
      crypto::Reader r(arg);
      const netsim::NodeId peer = r.u32();
      ctx.send_secure(peer, r.lv());
    }
    if (subfn == 2) {
      crypto::Reader r(arg);
      const netsim::NodeId peer = r.u32();
      ctx.send_plain(peer, r.lv());
    }
    return {};
  }

  std::vector<netsim::NodeId> attested_events;
  std::vector<std::pair<netsim::NodeId, std::string>> inbox;
  std::vector<std::pair<netsim::NodeId, std::string>> plain_inbox;
};

/// The ChatApp as an open project so all nodes share one measurement.
struct ChatWorld {
  explicit ChatWorld(bool use_dh = true)
      : project("chat",
                "tenet chat application v1\nstores secure messages\n",
                nullptr) {
    sgx::AttestationConfig cfg = project.policy(/*mutual=*/false, use_dh);
    const OpenProject* proj = &project;
    const sgx::Authority* auth = &authority;
    image = proj->build();
    image.factory = [auth, cfg] { return std::make_unique<ChatApp>(*auth, cfg); };
  }

  EnclaveNode& add_node(const std::string& name) {
    nodes.push_back(std::make_unique<EnclaveNode>(
        sim, authority, name, project.foundation(), image));
    nodes.back()->start();
    return *nodes.back();
  }

  void send_chat(EnclaveNode& from, netsim::NodeId to, std::string_view text) {
    crypto::Bytes arg;
    crypto::append_u32(arg, to);
    crypto::append_lv(arg, crypto::to_bytes(text));
    (void)from.control(1, arg);
  }

  netsim::Simulator sim;
  sgx::Authority authority;
  OpenProject project;
  sgx::EnclaveImage image;
  std::vector<std::unique_ptr<EnclaveNode>> nodes;
};

TEST(SecureApp, AttestThenExchangeSecureMessages) {
  ChatWorld w;
  EnclaveNode& a = w.add_node("alice");
  EnclaveNode& b = w.add_node("bob");

  a.connect_to(b.id());
  w.sim.run();

  EXPECT_EQ(a.query(kQueryAttestationsInitiated), 1u);
  EXPECT_EQ(b.query(kQueryAttestationsServed), 1u);
  EXPECT_EQ(a.query(kQueryAttestedPeerCount), 1u);
  EXPECT_EQ(b.query(kQueryAttestedPeerCount), 1u);

  w.send_chat(a, b.id(), "hello bob");
  w.send_chat(b, a.id(), "hello alice");
  w.sim.run();

  // Verify via rejected-record counters that traffic flowed cleanly.
  EXPECT_EQ(a.query(kQueryRejectedRecords), 0u);
  EXPECT_EQ(b.query(kQueryRejectedRecords), 0u);
}

TEST(SecureApp, AttestationHappensOncePerPeer) {
  ChatWorld w;
  EnclaveNode& a = w.add_node("alice");
  EnclaveNode& b = w.add_node("bob");
  a.connect_to(b.id());
  w.sim.run();
  a.connect_to(b.id());  // second connect: cached
  a.connect_to(b.id());
  w.sim.run();
  EXPECT_EQ(a.query(kQueryAttestationsInitiated), 1u);
  EXPECT_EQ(b.query(kQueryAttestationsServed), 1u);
}

TEST(SecureApp, SecureSendBeforeAttestationFails) {
  ChatWorld w;
  EnclaveNode& a = w.add_node("alice");
  EnclaveNode& b = w.add_node("bob");
  crypto::Bytes arg;
  crypto::append_u32(arg, b.id());
  crypto::append_lv(arg, crypto::to_bytes("too early"));
  EXPECT_THROW((void)a.control(1, arg), std::logic_error);
}

TEST(SecureApp, PatchedPeerIsRejected) {
  // §3.2: "Malicious Tor nodes fail to pass an enclave integrity check."
  ChatWorld w;
  EnclaveNode& a = w.add_node("alice");

  sgx::EnclaveImage evil = sgx::adversary::patch_image(w.image, "log plaintext");
  EnclaveNode evil_node(w.sim, w.authority, "mallory", w.project.foundation(),
                        evil);
  evil_node.start();

  a.connect_to(evil_node.id());
  w.sim.run();
  EXPECT_EQ(a.query(kQueryAttestedPeerCount), 0u);
}

TEST(SecureApp, TamperedRecordIsDroppedAndCounted) {
  ChatWorld w;
  EnclaveNode& a = w.add_node("alice");
  EnclaveNode& b = w.add_node("bob");
  a.connect_to(b.id());
  w.sim.run();

  // A MITM injects a corrupted record claiming to come from alice.
  crypto::Bytes fake(64, 0xee);
  w.sim.post(netsim::Message{a.id(), b.id(), kPortSecure, fake});
  w.sim.run();
  EXPECT_EQ(b.query(kQueryRejectedRecords), 1u);
}

TEST(SecureApp, RecordsFromUnattestedSourceRejected) {
  ChatWorld w;
  EnclaveNode& a = w.add_node("alice");
  EnclaveNode& b = w.add_node("bob");
  (void)a;
  // No attestation at all; random node id claims a secure record.
  w.sim.post(netsim::Message{77, b.id(), kPortSecure, crypto::Bytes(64, 1)});
  w.sim.run();
  EXPECT_EQ(b.query(kQueryRejectedRecords), 1u);
}

TEST(SecureApp, PlainPortBypassesChannels) {
  ChatWorld w;
  EnclaveNode& a = w.add_node("alice");
  EnclaveNode& b = w.add_node("bob");
  crypto::Bytes arg;
  crypto::append_u32(arg, b.id());
  crypto::append_lv(arg, crypto::to_bytes("public hello"));
  (void)a.control(2, arg);
  w.sim.run();
  // No channel required, no rejections.
  EXPECT_EQ(b.query(kQueryRejectedRecords), 0u);
}

TEST(SecureApp, AttestationOnlyModeWithoutDh) {
  ChatWorld w(/*use_dh=*/false);
  EnclaveNode& a = w.add_node("alice");
  EnclaveNode& b = w.add_node("bob");
  a.connect_to(b.id());
  w.sim.run();
  EXPECT_EQ(a.query(kQueryAttestedPeerCount), 1u);
  // Without DH there is no channel: secure send must fail.
  crypto::Bytes arg;
  crypto::append_u32(arg, b.id());
  crypto::append_lv(arg, crypto::to_bytes("x"));
  EXPECT_THROW((void)a.control(1, arg), std::logic_error);
}

TEST(SecureApp, ManyNodesFullMeshAttestation) {
  ChatWorld w;
  constexpr int kN = 5;
  std::vector<EnclaveNode*> nodes;
  for (int i = 0; i < kN; ++i) {
    nodes.push_back(&w.add_node("node-" + std::to_string(i)));
  }
  for (int i = 0; i < kN; ++i) {
    for (int j = i + 1; j < kN; ++j) {
      nodes[static_cast<size_t>(i)]->connect_to(nodes[static_cast<size_t>(j)]->id());
    }
  }
  w.sim.run();
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(nodes[static_cast<size_t>(i)]->query(kQueryAttestedPeerCount),
              static_cast<uint64_t>(kN - 1))
        << "node " << i;
  }
}

TEST(SecureApp, SecureTrafficIsEncryptedOnTheWire) {
  ChatWorld w;
  EnclaveNode& a = w.add_node("alice");
  // A passive wiretap sums the bytes alice posts.
  size_t alice_bytes = 0;
  w.sim.set_wiretap([&](const netsim::Message& msg) {
    if (msg.src == a.id()) alice_bytes += msg.payload.size();
  });
  EnclaveNode& b = w.add_node("bob");
  a.connect_to(b.id());
  w.sim.run();

  const std::string secret = "the secret routing policy of AS 7018";
  w.send_chat(a, b.id(), secret);
  w.sim.run();

  // Alice's bytes on the wire exceeded the plaintext size (AEAD
  // overhead), and bob accepted the record.
  EXPECT_EQ(b.query(kQueryRejectedRecords), 0u);
  EXPECT_GT(alice_bytes, secret.size());
}

TEST(EnclaveNode, DeadNodeStopsResponding) {
  ChatWorld w;
  EnclaveNode& a = w.add_node("alice");
  EnclaveNode& b = w.add_node("bob");
  a.connect_to(b.id());
  w.sim.run();
  ASSERT_FALSE(b.dead());

  // Privileged attacker corrupts bob's enclave pages.
  ASSERT_TRUE(b.platform().epc().adversary_corrupt(b.enclave().id(), 0, 50));
  w.send_chat(a, b.id(), "are you there?");
  w.sim.run();
  EXPECT_TRUE(b.dead());  // enclave faulted; node went silent (DoS only)
}

TEST(EnclaveNode, CostSnapshotAggregatesPlatform) {
  ChatWorld w;
  EnclaveNode& a = w.add_node("alice");
  EnclaveNode& b = w.add_node("bob");
  a.connect_to(b.id());
  w.sim.run();
  const auto sa = a.cost_snapshot();
  EXPECT_GT(sa.sgx_user, 0u);
  EXPECT_GT(sa.normal, 0u);
}

}  // namespace
}  // namespace tenet::core
