// Integration tests for §3.3: attested in-path middleboxes with session-
// key provisioning.
#include "mbox/scenario.h"

#include <gtest/gtest.h>

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

TEST(Middlebox, WrongLengthKeyLeavesNoStateToRefuseTheRightOne) {
  // A provisioned key that is not one AEAD key is refused before it
  // touches the session, so the right keys that follow still activate DPI.
  netsim::Simulator sim;
  sgx::Authority authority;
  const core::OpenProject mbox_project("dpi-middlebox", "test middlebox\n",
                                       nullptr);
  const core::OpenProject endpoint_project("raw-provisioner",
                                           "test endpoint\n", nullptr);
  const sgx::Authority* auth = &authority;
  sgx::EnclaveImage mbox_image = mbox_project.build();
  mbox_image.factory = [auth] {
    return std::make_unique<DpiMiddleboxApp>(
        *auth, sgx::AttestationConfig{}, MboxPolicy{},
        std::vector<std::string>{"ATTACK"});
  };
  sgx::EnclaveImage endpoint_image = endpoint_project.build();
  const sgx::AttestationConfig endpoint_cfg = mbox_project.policy();
  endpoint_image.factory = [auth, endpoint_cfg] {
    return std::make_unique<RawProvisioner>(*auth, endpoint_cfg);
  };
  core::EnclaveNode mbox(sim, authority, "mbox", mbox_project.foundation(),
                         mbox_image);
  core::EnclaveNode endpoint(sim, authority, "endpoint",
                             endpoint_project.foundation(), endpoint_image);
  mbox.start();
  endpoint.start();
  endpoint.connect_to(mbox.id());
  sim.run();

  constexpr uint32_t kSid = 7;
  auto provision = [&](EndpointRole role, size_t key_size) {
    crypto::Bytes arg;
    crypto::append_u32(arg, mbox.id());
    crypto::append_lv(arg, encode_provision(kSid, role,
                                            {crypto::Bytes(key_size, 0x42)}));
    (void)endpoint.control(0, arg);
    sim.run();
  };
  auto active = [&] {
    crypto::Bytes arg;
    crypto::append_u32(arg, kSid);
    const crypto::Bytes out = mbox.control(kCtlSessionActive, arg);
    return !out.empty() && out[0] == 1;
  };

  provision(EndpointRole::kClient, crypto::Aead::kKeySize - 1);
  provision(EndpointRole::kClient, crypto::Aead::kKeySize);
  EXPECT_FALSE(active());  // bilateral: the server has not provisioned yet
  provision(EndpointRole::kServer, crypto::Aead::kKeySize);
  EXPECT_TRUE(active());
}

}  // namespace
}  // namespace tenet::mbox
