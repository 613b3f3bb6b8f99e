// Integration tests for §3.3: attested in-path middleboxes with session-
// key provisioning.
#include "mbox/scenario.h"

#include <gtest/gtest.h>

#include "core/ports.h"
#include "decoder_mutation.h"

namespace tenet::mbox {
namespace {

MboxScenarioConfig basic() {
  MboxScenarioConfig cfg;
  cfg.n_middleboxes = 1;
  cfg.patterns = {"ATTACK"};
  cfg.policy.require_both_endpoints = true;
  return cfg;
}

TEST(Middlebox, TlsThroughChainEndToEnd) {
  MboxDeployment dep(basic());
  const uint32_t sid = dep.open_session();
  ASSERT_TRUE(dep.established(sid));
  dep.send(sid, "hello server");
  const auto at_server = dep.server_received(sid);
  ASSERT_EQ(at_server.size(), 1u);
  EXPECT_EQ(at_server[0], "hello server");
  const auto at_client = dep.client_received(sid);
  ASSERT_EQ(at_client.size(), 1u);
  EXPECT_EQ(at_client[0], "ok:hello server");
}

TEST(Middlebox, UnprovisionedMiddleboxIsBlind) {
  MboxDeployment dep(basic());
  const uint32_t sid = dep.open_session();
  ASSERT_TRUE(dep.established(sid));
  dep.send(sid, "contains ATTACK signature");
  // Traffic flowed, but the middlebox saw only ciphertext.
  EXPECT_FALSE(dep.session_active(0, sid));
  EXPECT_EQ(dep.alerts(0), 0u);
  EXPECT_EQ(dep.inspected(0), 0u);
  EXPECT_GE(dep.opaque_forwarded(0), 2u);  // request + response records
  EXPECT_EQ(dep.server_received(sid).size(), 1u);
}

TEST(Middlebox, BilateralProvisioningActivatesDpi) {
  MboxDeployment dep(basic());
  const uint32_t sid = dep.open_session();
  ASSERT_TRUE(dep.established(sid));

  // One endpoint alone is not enough under the bilateral policy ("only
  // the middleboxes that BOTH end-points agree upon decrypt").
  dep.provision_from_client(sid);
  EXPECT_FALSE(dep.session_active(0, sid));
  dep.send(sid, "ATTACK before agreement");
  EXPECT_EQ(dep.alerts(0), 0u);

  dep.provision_from_server(sid);
  EXPECT_TRUE(dep.session_active(0, sid));
  dep.send(sid, "an ATTACK after agreement");
  EXPECT_GE(dep.alerts(0), 1u);
  EXPECT_GE(dep.inspected(0), 1u);
  // End-to-end traffic unaffected by inspection.
  const auto at_server = dep.server_received(sid);
  EXPECT_EQ(at_server.back(), "an ATTACK after agreement");
}

TEST(Middlebox, UnilateralModeEnablesOutsourcedDpi) {
  // "TLS traffic in enterprise networks can be sent to the SGX-enabled
  // cloud for deep packet inspection" — one endpoint provisions alone.
  MboxScenarioConfig cfg = basic();
  cfg.policy.require_both_endpoints = false;
  MboxDeployment dep(cfg);
  const uint32_t sid = dep.open_session();
  ASSERT_TRUE(dep.established(sid));
  dep.provision_from_client(sid);
  EXPECT_TRUE(dep.session_active(0, sid));
  dep.send(sid, "exfil ATTACK payload");
  EXPECT_GE(dep.alerts(0), 1u);
}

TEST(Middlebox, CleanTrafficRaisesNoAlerts) {
  MboxScenarioConfig cfg = basic();
  cfg.policy.require_both_endpoints = false;
  MboxDeployment dep(cfg);
  const uint32_t sid = dep.open_session();
  ASSERT_TRUE(dep.established(sid));
  dep.provision_from_client(sid);
  dep.send(sid, "perfectly benign request");
  dep.send(sid, "another innocent one");
  EXPECT_EQ(dep.alerts(0), 0u);
  EXPECT_GE(dep.inspected(0), 4u);  // 2 requests + 2 echo responses
}

TEST(Middlebox, IpsModeBlocksMatchingRecords) {
  MboxScenarioConfig cfg = basic();
  cfg.policy.require_both_endpoints = false;
  cfg.policy.block_on_match = true;
  MboxDeployment dep(cfg);
  const uint32_t sid = dep.open_session();
  ASSERT_TRUE(dep.established(sid));
  dep.provision_from_client(sid);

  dep.send(sid, "benign");
  EXPECT_EQ(dep.server_received(sid).size(), 1u);

  dep.send(sid, "drop this ATTACK now");
  // The malicious record never reached the server.
  EXPECT_EQ(dep.server_received(sid).size(), 1u);
  EXPECT_GE(dep.blocked(0), 1u);
}

TEST(Middlebox, RogueMiddleboxFailsAttestationAndStaysBlind) {
  MboxScenarioConfig cfg = basic();
  cfg.policy.require_both_endpoints = false;
  cfg.rogue_index = 0;
  MboxDeployment dep(cfg);
  const uint32_t sid = dep.open_session();
  ASSERT_TRUE(dep.established(sid));

  dep.provision_from_client(sid);  // attestation of the rogue build fails
  EXPECT_FALSE(dep.session_active(0, sid));
  dep.send(sid, "ATTACK through the rogue box");
  EXPECT_EQ(dep.alerts(0), 0u);
  EXPECT_EQ(dep.inspected(0), 0u);
  // Traffic still flows (the rogue can only forward or drop).
  EXPECT_EQ(dep.server_received(sid).size(), 1u);
}

TEST(Middlebox, ChainOfMiddleboxesAllInspect) {
  MboxScenarioConfig cfg = basic();
  cfg.n_middleboxes = 3;
  cfg.policy.require_both_endpoints = false;
  MboxDeployment dep(cfg);
  const uint32_t sid = dep.open_session();
  ASSERT_TRUE(dep.established(sid));
  dep.provision_from_client(sid);
  dep.send(sid, "one ATTACK for everyone");
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(dep.session_active(i, sid)) << "mbox " << i;
    EXPECT_GE(dep.alerts(i), 1u) << "mbox " << i;
  }
  EXPECT_EQ(dep.server_received(sid).size(), 1u);
}

TEST(Middlebox, Table3AttestationsEqualInPathMiddleboxes) {
  // Table 3: "TLS-aware middlebox: number of in-path middleboxes".
  for (const size_t n : {1u, 2u, 4u}) {
    MboxScenarioConfig cfg = basic();
    cfg.n_middleboxes = n;
    cfg.policy.require_both_endpoints = false;
    MboxDeployment dep(cfg);
    const uint32_t sid = dep.open_session();
    ASSERT_TRUE(dep.established(sid));
    dep.provision_from_client(sid);
    EXPECT_EQ(dep.client_attestations(), n) << "n=" << n;

    // Second session through the same chain: attestation is cached.
    const uint32_t sid2 = dep.open_session();
    ASSERT_TRUE(dep.established(sid2));
    dep.provision_from_client(sid2);
    EXPECT_EQ(dep.client_attestations(), n) << "n=" << n;
  }
}

TEST(Middlebox, PlaintextNeverOnWireEvenWhenInspected) {
  MboxScenarioConfig cfg = basic();
  cfg.policy.require_both_endpoints = false;
  MboxDeployment dep(cfg);
  const uint32_t sid = dep.open_session();
  ASSERT_TRUE(dep.established(sid));
  dep.provision_from_client(sid);

  const std::string secret = "super-secret-ATTACK-credentials";
  const crypto::Bytes needle = crypto::to_bytes(secret);
  size_t sightings = 0;
  dep.sim().set_wiretap([&](const netsim::Message& m) {
    if (std::search(m.payload.begin(), m.payload.end(), needle.begin(),
                    needle.end()) != m.payload.end()) {
      ++sightings;
    }
  });
  dep.send(sid, secret);
  EXPECT_EQ(sightings, 0u);      // TLS everywhere on the wire
  EXPECT_GE(dep.alerts(0), 1u);  // yet the enclave DPI saw the plaintext
  EXPECT_EQ(dep.server_received(sid).back(), secret);
}

TEST(Middlebox, SessionsAreIsolated) {
  MboxScenarioConfig cfg = basic();
  cfg.policy.require_both_endpoints = false;
  MboxDeployment dep(cfg);
  const uint32_t sid1 = dep.open_session();
  const uint32_t sid2 = dep.open_session();
  ASSERT_TRUE(dep.established(sid1));
  ASSERT_TRUE(dep.established(sid2));
  dep.provision_from_client(sid1);  // only session 1 is provisioned
  EXPECT_TRUE(dep.session_active(0, sid1));
  EXPECT_FALSE(dep.session_active(0, sid2));
  dep.send(sid2, "ATTACK in unprovisioned session");
  EXPECT_EQ(dep.alerts(0), 0u);
  dep.send(sid1, "ATTACK in provisioned session");
  EXPECT_GE(dep.alerts(0), 1u);
}

TEST(Middlebox, AlertsCarryPatternIdsAndStreamOffsets) {
  MboxScenarioConfig cfg;
  cfg.n_middleboxes = 1;
  cfg.patterns = {"AAA", "BBB"};
  cfg.policy.require_both_endpoints = false;
  MboxDeployment dep(cfg);
  const uint32_t sid = dep.open_session();
  ASSERT_TRUE(dep.established(sid));
  dep.provision_from_client(sid);

  dep.send(sid, "xxAAAyy");   // AAA ends at stream offset 5
  dep.send(sid, "zBBB");      // BBB ends at offset 7 + 4 = 11

  const crypto::Bytes wire = dep.mbox_node(0).control(kCtlAlerts);
  std::vector<std::pair<uint32_t, uint64_t>> alerts;
  crypto::Reader r(wire);
  while (!r.done()) {
    const uint32_t id = r.u32();
    const uint64_t off = r.u64();
    alerts.emplace_back(id, off);
  }
  // Client->server direction alerts (the echo responses also match, on
  // the other direction's scanner with its own offsets).
  ASSERT_GE(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].first, 0u);   // "AAA"
  EXPECT_EQ(alerts[0].second, 5u);
  const bool found_bbb = std::any_of(
      alerts.begin(), alerts.end(),
      [](const auto& a) { return a.first == 1 && a.second == 11; });
  EXPECT_TRUE(found_bbb);
}

TEST(Middlebox, ServerProvisionAloneInsufficientUnderBilateral) {
  MboxDeployment dep(basic());
  const uint32_t sid = dep.open_session();
  ASSERT_TRUE(dep.established(sid));
  dep.provision_from_server(sid);
  EXPECT_FALSE(dep.session_active(0, sid));
  dep.send(sid, "half-agreed ATTACK");
  EXPECT_EQ(dep.alerts(0), 0u);
}

/// Attested stand-in for an endpoint that sends whatever secure payload
/// the test hands it (control: u32 peer | LV payload).
class RawProvisioner final : public core::SecureApp {
 public:
  using SecureApp::SecureApp;

  void on_secure_message(core::Ctx&, netsim::NodeId,
                         crypto::BytesView) override {}
  crypto::Bytes on_control(core::Ctx& ctx, uint32_t,
                           crypto::BytesView arg) override {
    crypto::Reader r(arg);
    const netsim::NodeId peer = r.u32();
    ctx.send_secure(peer, r.lv());
    return {};
  }
};

/// One middlebox and two attested RawProvisioners, each of which sends
/// the middlebox whatever provision message the test hands it.
class ProvisionRig {
 public:
  static constexpr uint32_t kSid = 7;

  ProvisionRig() {
    const sgx::Authority* auth = &authority_;
    sgx::EnclaveImage mbox_image = mbox_project_.build();
    mbox_image.factory = [auth] {
      return std::make_unique<DpiMiddleboxApp>(
          *auth, sgx::AttestationConfig{}, MboxPolicy{},
          std::vector<std::string>{"ATTACK"});
    };
    sgx::EnclaveImage endpoint_image = endpoint_project_.build();
    const sgx::AttestationConfig endpoint_cfg = mbox_project_.policy();
    endpoint_image.factory = [auth, endpoint_cfg] {
      return std::make_unique<RawProvisioner>(*auth, endpoint_cfg);
    };
    mbox_ = std::make_unique<core::EnclaveNode>(
        sim_, authority_, "mbox", mbox_project_.foundation(), mbox_image);
    mbox_->start();
    for (const char* name : {"endpoint-a", "endpoint-b"}) {
      endpoints_.push_back(std::make_unique<core::EnclaveNode>(
          sim_, authority_, name, endpoint_project_.foundation(),
          endpoint_image));
      endpoints_.back()->start();
      endpoints_.back()->connect_to(mbox_->id());
    }
    sim_.run();
  }

  /// Endpoint `e` provisions session kSid as `role` with a `key_size`-byte
  /// key.
  void provision(size_t e, EndpointRole role, size_t key_size) {
    crypto::Bytes arg;
    crypto::append_u32(arg, mbox_->id());
    crypto::append_lv(arg, encode_provision(kSid, role,
                                            {crypto::Bytes(key_size, 0x42)}));
    (void)endpoints_.at(e)->control(0, arg);
    sim_.run();
  }

  bool active() {
    crypto::Bytes arg;
    crypto::append_u32(arg, kSid);
    const crypto::Bytes out = mbox_->control(kCtlSessionActive, arg);
    return !out.empty() && out[0] == 1;
  }

 private:
  netsim::Simulator sim_;
  sgx::Authority authority_;
  const core::OpenProject mbox_project_{"dpi-middlebox", "test middlebox\n",
                                        nullptr};
  const core::OpenProject endpoint_project_{"raw-provisioner",
                                            "test endpoint\n", nullptr};
  std::unique_ptr<core::EnclaveNode> mbox_;
  std::vector<std::unique_ptr<core::EnclaveNode>> endpoints_;
};

TEST(Middlebox, WrongLengthKeyLeavesNoStateToRefuseTheRightOne) {
  // A provisioned key that is not one AEAD key is refused before it
  // touches the session, so the right keys that follow still activate DPI.
  ProvisionRig rig;
  rig.provision(0, EndpointRole::kClient, crypto::Aead::kKeySize - 1);
  rig.provision(0, EndpointRole::kClient, crypto::Aead::kKeySize);
  EXPECT_FALSE(rig.active());  // bilateral: the server has not provisioned yet
  rig.provision(1, EndpointRole::kServer, crypto::Aead::kKeySize);
  EXPECT_TRUE(rig.active());
}

TEST(Middlebox, OnePeerCannotProvisionBothRoles) {
  // Bilateral agreement means two endpoints: a peer holding the client
  // role cannot also speak for the server, and a role already bound to
  // one peer cannot be claimed by another.
  ProvisionRig rig;
  rig.provision(0, EndpointRole::kClient, crypto::Aead::kKeySize);
  rig.provision(0, EndpointRole::kServer, crypto::Aead::kKeySize);
  EXPECT_FALSE(rig.active());
  rig.provision(1, EndpointRole::kClient, crypto::Aead::kKeySize);
  EXPECT_FALSE(rig.active());
  rig.provision(1, EndpointRole::kServer, crypto::Aead::kKeySize);
  EXPECT_TRUE(rig.active());
}

TEST(Middlebox, RecordWithUnknownDirectionIsNeitherForwardedNorCounted) {
  // Direction 2 is neither way along the path: the middlebox must not
  // read it as server->client and reflect the record to the sender.
  MboxDeployment dep(basic());
  const uint32_t sid = dep.open_session();
  ASSERT_TRUE(dep.established(sid));
  const netsim::NodeId mbox = dep.mbox_node(0).id();
  size_t sent_by_mbox = 0;
  dep.sim().set_wiretap([&](const netsim::Message& m) {
    if (m.src == mbox) ++sent_by_mbox;
  });
  netsim::Message m;
  m.src = dep.client_node().id();  // the session's prev hop
  m.dst = mbox;
  m.port = core::kPortPlain;
  m.payload = encode_frame(MboxMsg::kRecord, sid, Direction::kClientToServer,
                           crypto::Bytes(48, 0x5a));
  m.payload[5] = 2;  // the direction byte
  dep.sim().post(std::move(m));
  dep.sim().run();
  EXPECT_EQ(sent_by_mbox, 0u);
  EXPECT_EQ(dep.opaque_forwarded(0), 0u);
  EXPECT_EQ(dep.blocked(0), 0u);
}

/// Re-encodes a decoded frame with the encoder its tag calls for.
crypto::Bytes reencode(const Frame& f) {
  if (f.tag != MboxMsg::kOpen) return encode_frame(f.tag, f.sid, f.dir, f.body);
  std::vector<netsim::NodeId> hops;
  for (size_t i = 0; i < f.hop_count(); ++i) hops.push_back(f.hop(i));
  return encode_open(f.sid, hops);
}

TEST(MboxFrame, SeededMutationsAreCanonicalOrRejected) {
  const crypto::Bytes body = crypto::to_bytes("handshake or record body");
  const std::vector<size_t> dir_byte = {5};
  struct Case {
    crypto::Bytes wire;
    std::vector<size_t> flags;
  };
  const Case cases[] = {
      {encode_frame(MboxMsg::kHandshake, 7, Direction::kServerToClient, body),
       dir_byte},
      {encode_frame(MboxMsg::kRecord, 7, Direction::kClientToServer, body),
       dir_byte},
      {encode_open(7, {3, 4, 5}), {}},
  };
  uint64_t seed = 41;
  for (const Case& c : cases) {
    const test::MutationTally t = test::check_mutations(
        c.wire, [](crypto::BytesView w) { return reencode(decode_frame(w)); },
        seed++, c.flags);
    EXPECT_GT(t.accepted, 0u);  // flips inside the sid, body or hops
    EXPECT_GT(t.rejected, 0u);
    if (!c.flags.empty()) {
      EXPECT_GT(t.by_kind[3], 0u);
    }
  }
}

TEST(MboxFrame, RejectsWhatNoEncoderWrites) {
  crypto::Bytes frame =
      encode_frame(MboxMsg::kRecord, 7, Direction::kClientToServer, {});
  frame[5] = 2;
  EXPECT_THROW(decode_frame(frame), std::invalid_argument);  // direction
  frame[0] = 4;
  EXPECT_THROW(decode_frame(frame), std::invalid_argument);  // tag
  crypto::Bytes open = encode_open(7, {3, 4});
  open.push_back(0);
  EXPECT_THROW(decode_frame(open), std::invalid_argument);  // trailing
  open.pop_back();
  open[5] = 0xff;  // a hop count of ~4 billion over two hops
  EXPECT_THROW(decode_frame(open), std::invalid_argument);
}

TEST(MboxProvision, SeededMutationsAreCanonicalOrRejected) {
  const crypto::Bytes wire = encode_provision(
      7, EndpointRole::kServer, {crypto::Bytes(crypto::Aead::kKeySize, 0x42)});
  const test::MutationTally t = test::check_mutations(
      wire,
      [](crypto::BytesView w) {
        const Provision p = decode_provision(w);
        return encode_provision(p.sid, p.role, p.keys);
      },
      /*seed=*/44);
  EXPECT_GT(t.accepted, 0u);  // flips inside the sid or key
  EXPECT_GT(t.rejected, 0u);
  crypto::Bytes bad_role = wire;
  bad_role[5] = 3;
  EXPECT_THROW(decode_provision(bad_role), std::invalid_argument);
}

}  // namespace
}  // namespace tenet::mbox
