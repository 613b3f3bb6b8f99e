// Directory-authority state persistence (§3.2 "keep authority keys and
// list of Tor nodes inside the enclaves") and multi-request circuits.
#include <gtest/gtest.h>

#include "tor/network.h"

namespace tenet::tor {
namespace {

std::vector<size_t> indices(size_t n) {
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

TorNetworkConfig small(Phase phase) {
  TorNetworkConfig cfg;
  cfg.phase = phase;
  cfg.n_authorities = 3;
  cfg.n_relays = 4;
  return cfg;
}

TEST(DirauthPersistence, SealedStateSurvivesReboot) {
  TorNetwork net(small(Phase::kBaseline));
  const auto auths = indices(3);
  net.publish_descriptors(auths);
  for (const size_t i : auths) net.approve_all_pending(i);
  ASSERT_EQ(crypto::read_u64(net.authority(0).control(kCtlAdmittedCount), 0),
            net.relay_count());

  // Seal the admitted set; the blob lives with the untrusted host.
  const crypto::Bytes blob = net.authority(0).checkpoint();
  ASSERT_FALSE(blob.empty());

  // Reboot the authority machine: all in-enclave state is lost...
  net.authority(0).relaunch();
  EXPECT_EQ(crypto::read_u64(net.authority(0).control(kCtlAdmittedCount), 0),
            0u);

  // ...until the host hands back the sealed blob.
  ASSERT_TRUE(net.authority(0).restore(blob));
  EXPECT_EQ(crypto::read_u64(net.authority(0).control(kCtlAdmittedCount), 0),
            net.relay_count());
}

TEST(DirauthPersistence, HostCannotForgeOrReadSealedState) {
  TorNetwork net(small(Phase::kBaseline));
  const auto auths = indices(3);
  net.publish_descriptors(auths);
  net.approve_all_pending(0);
  const crypto::Bytes blob = net.authority(0).checkpoint();

  // The relay list must not be readable from the blob.
  const crypto::Bytes nickname = crypto::to_bytes("relay-0");
  EXPECT_EQ(std::search(blob.begin(), blob.end(), nickname.begin(),
                        nickname.end()),
            blob.end());

  // A tampered blob is rejected after reboot.
  crypto::Bytes forged = blob;
  forged[forged.size() / 2] ^= 1;
  net.authority(0).relaunch();
  EXPECT_FALSE(net.authority(0).restore(forged));
  EXPECT_EQ(crypto::read_u64(net.authority(0).control(kCtlAdmittedCount), 0),
            0u);
}

TEST(DirauthPersistence, AnotherAuthorityCannotUseTheBlob) {
  // Seal keys are platform+identity bound: authority 1's enclave (same
  // code, different platform) cannot unseal authority 0's state.
  TorNetwork net(small(Phase::kBaseline));
  const auto auths = indices(3);
  net.publish_descriptors(auths);
  net.approve_all_pending(0);
  const crypto::Bytes blob = net.authority(0).checkpoint();
  EXPECT_FALSE(net.authority(1).restore(blob));
  EXPECT_EQ(crypto::read_u64(net.authority(1).control(kCtlAdmittedCount), 0),
            0u);
}

TEST(TorCircuit, ManySequentialRequestsOverOneCircuit) {
  TorNetwork net(small(Phase::kBaseline));
  const auto auths = indices(3);
  net.publish_descriptors(auths);
  for (const size_t i : auths) net.approve_all_pending(i);
  net.run_vote(1, auths);
  ASSERT_TRUE(net.fetch_consensus(0, net.authority(0).id()));
  ASSERT_TRUE(net.build_circuit(0, net.relay(0).id(), net.relay(1).id(),
                                net.relay(2).id()));
  for (int i = 0; i < 12; ++i) {
    const std::string payload = "request-" + std::to_string(i);
    const auto reply = net.request(0, payload);
    ASSERT_TRUE(reply.has_value()) << payload;
    EXPECT_EQ(*reply, "echo:" + payload);
  }
  EXPECT_EQ(net.destination().requests_seen().size(), 12u);
}

TEST(TorCircuit, TwoClientsShareTheNetwork) {
  TorNetworkConfig cfg = small(Phase::kBaseline);
  cfg.n_clients = 2;
  TorNetwork net(cfg);
  const auto auths = indices(3);
  net.publish_descriptors(auths);
  for (const size_t i : auths) net.approve_all_pending(i);
  net.run_vote(1, auths);
  ASSERT_TRUE(net.fetch_consensus(0, net.authority(0).id()));
  ASSERT_TRUE(net.fetch_consensus(1, net.authority(1).id()));

  // Overlapping circuits through the same relays.
  ASSERT_TRUE(net.build_circuit(0, net.relay(0).id(), net.relay(1).id(),
                                net.relay(2).id()));
  ASSERT_TRUE(net.build_circuit(1, net.relay(1).id(), net.relay(2).id(),
                                net.relay(3).id()));

  const auto r0 = net.request(0, "from client zero");
  const auto r1 = net.request(1, "from client one");
  ASSERT_TRUE(r0.has_value());
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(*r0, "echo:from client zero");
  EXPECT_EQ(*r1, "echo:from client one");

  // Shared relays carry both circuits.
  const crypto::Bytes count = net.relay(1).control(kCtlCircuitCount);
  EXPECT_EQ(crypto::read_u64(count, 0), 2u);
}

TEST(TorCircuit, RebuildAfterTeardown) {
  TorNetwork net(small(Phase::kBaseline));
  const auto auths = indices(3);
  net.publish_descriptors(auths);
  for (const size_t i : auths) net.approve_all_pending(i);
  net.run_vote(1, auths);
  ASSERT_TRUE(net.fetch_consensus(0, net.authority(0).id()));

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(net.build_circuit(0, net.relay(0).id(), net.relay(1).id(),
                                  net.relay(2).id()))
        << "round " << round;
    const auto reply = net.request(0, "round");
    ASSERT_TRUE(reply.has_value());
    (void)net.client(0).control(kCtlTeardown);
    net.sim().run();
  }
  const crypto::Bytes count = net.relay(0).control(kCtlCircuitCount);
  EXPECT_EQ(crypto::read_u64(count, 0), 0u);  // all torn down
}

TEST(AutoCircuit, InEnclavePathSelectionWorksEndToEnd) {
  TorNetwork net(small(Phase::kBaseline));
  const auto auths = indices(3);
  net.publish_descriptors(auths);
  for (const size_t i : auths) net.approve_all_pending(i);
  net.run_vote(1, auths);
  ASSERT_TRUE(net.fetch_consensus(0, net.authority(0).id()));

  ASSERT_TRUE(net.build_auto_circuit(0));
  const auto reply = net.request(0, "auto path");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "echo:auto path");
}

TEST(AutoCircuit, PicksThreeDistinctRelays) {
  TorNetwork net(small(Phase::kBaseline));
  const auto auths = indices(3);
  net.publish_descriptors(auths);
  for (const size_t i : auths) net.approve_all_pending(i);
  net.run_vote(1, auths);
  ASSERT_TRUE(net.fetch_consensus(0, net.authority(0).id()));
  ASSERT_TRUE(net.build_auto_circuit(0));

  // Exactly three relays hold exactly one circuit each.
  size_t carrying = 0;
  for (size_t i = 0; i < net.relay_count(); ++i) {
    const uint64_t n =
        crypto::read_u64(net.relay(i).control(kCtlCircuitCount), 0);
    EXPECT_LE(n, 1u) << "relay " << i << " carries a looped circuit";
    carrying += n;
  }
  EXPECT_EQ(carrying, 3u);
}

TEST(AutoCircuit, FailsCleanlyWithoutEnoughRelays) {
  TorNetworkConfig cfg = small(Phase::kBaseline);
  cfg.n_relays = 2;  // not enough for 3 distinct hops
  TorNetwork net(cfg);
  const auto auths = indices(3);
  net.publish_descriptors(auths);
  for (const size_t i : auths) net.approve_all_pending(i);
  net.run_vote(1, auths);
  ASSERT_TRUE(net.fetch_consensus(0, net.authority(0).id()));
  EXPECT_FALSE(net.build_auto_circuit(0));
  EXPECT_EQ(net.circuit_state(0), CircuitState::kFailed);
  EXPECT_FALSE(net.circuit_failure(0).empty());
}

TEST(AutoCircuit, FullySgxAutoPathAttestsItsRelays) {
  TorNetworkConfig cfg = small(Phase::kFullySgx);
  TorNetwork net(cfg);
  net.join_ring_all();
  ASSERT_TRUE(net.install_directory_from_ring(0));
  ASSERT_TRUE(net.build_auto_circuit(0));
  EXPECT_EQ(net.client_attestations(0), 3u);
  const auto reply = net.request(0, "auto+attested");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "echo:auto+attested");
}

TEST(ConsensusEpochs, RevoteReflectsMembershipChanges) {
  // Epoch 1: all relays admitted everywhere. Epoch 2: one authority stops
  // voting for relay-0 (e.g. it went unreachable); majority keeps it.
  // Epoch 3: two authorities drop it; it falls out of the consensus.
  TorNetwork net(small(Phase::kBaseline));
  const auto auths = indices(3);
  net.publish_descriptors(auths);
  for (const size_t i : auths) net.approve_all_pending(i);
  net.run_vote(1, auths);
  ASSERT_EQ(net.consensus_of(1)->relays.size(), net.relay_count());

  // "Drop" relay-0 at authority 0 by rebooting it and restoring a sealed
  // state captured... simpler: reboot authority 0 entirely (it admits
  // nothing) and re-vote: majority of the remaining two still carries all
  // relays into the consensus.
  net.authority(0).relaunch();
  net.run_vote(2, auths);
  const auto c2 = net.consensus_of(1);
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->epoch, 2u);
  EXPECT_EQ(c2->relays.size(), net.relay_count());  // 2 of 3 = majority

  // Reboot a second authority: now only 1 of 3 votes for the relays.
  net.authority(1).relaunch();
  net.run_vote(3, auths);
  const auto c3 = net.consensus_of(2);
  ASSERT_TRUE(c3.has_value());
  EXPECT_TRUE(c3->relays.empty());
}

}  // namespace
}  // namespace tenet::tor
