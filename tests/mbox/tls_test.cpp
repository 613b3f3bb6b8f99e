#include "mbox/tls.h"

#include <gtest/gtest.h>

#include "decoder_mutation.h"

namespace tenet::mbox {
namespace {

struct Handshake {
  crypto::Drbg crng = crypto::Drbg::from_label(1, "tls.client");
  crypto::Drbg srng = crypto::Drbg::from_label(2, "tls.server");
  TlsClientSession client{crng};
  TlsServerSession server{srng};

  bool run() {
    const crypto::Bytes hello = client.hello();
    const auto server_hello = server.handle_hello(hello);
    if (!server_hello.has_value()) return false;
    const auto finished = client.handle_server_hello(*server_hello);
    if (!finished.has_value()) return false;
    return server.handle_finished(*finished);
  }
};

TEST(Tls, HandshakeCompletes) {
  Handshake h;
  ASSERT_TRUE(h.run());
  EXPECT_TRUE(h.client.established());
  EXPECT_TRUE(h.server.established());
  EXPECT_EQ(h.client.keys().channel_key, h.server.keys().channel_key);
  EXPECT_EQ(h.client.keys().channel_key.size(), 32u);
}

TEST(Tls, RecordsFlowBothWays) {
  Handshake h;
  ASSERT_TRUE(h.run());
  const auto at_server =
      h.server.channel().open(h.client.channel().seal(crypto::to_bytes("GET /")));
  ASSERT_TRUE(at_server.has_value());
  EXPECT_EQ(crypto::to_string(*at_server), "GET /");
  const auto at_client =
      h.client.channel().open(h.server.channel().seal(crypto::to_bytes("200 OK")));
  ASSERT_TRUE(at_client.has_value());
  EXPECT_EQ(crypto::to_string(*at_client), "200 OK");
}

TEST(Tls, ExportedKeysDecryptBothDirections) {
  // This is what a provisioned middlebox does: reconstruct passive views
  // from the exported key material.
  Handshake h;
  ASSERT_TRUE(h.run());
  netsim::SecureChannel c2s_view(h.client.keys().channel_key, false);
  netsim::SecureChannel s2c_view(h.client.keys().channel_key, true);

  const crypto::Bytes r1 = h.client.channel().seal(crypto::to_bytes("up"));
  const auto v1 = c2s_view.open(r1);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(crypto::to_string(*v1), "up");
  ASSERT_TRUE(h.server.channel().open(r1).has_value());

  const crypto::Bytes r2 = h.server.channel().seal(crypto::to_bytes("down"));
  const auto v2 = s2c_view.open(r2);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(crypto::to_string(*v2), "down");
}

TEST(Tls, TamperedServerHelloRejected) {
  Handshake h;
  const crypto::Bytes hello = h.client.hello();
  auto server_hello = h.server.handle_hello(hello);
  ASSERT_TRUE(server_hello.has_value());
  (*server_hello)[server_hello->size() - 1] ^= 1;  // corrupt the MAC
  EXPECT_FALSE(h.client.handle_server_hello(*server_hello).has_value());
  EXPECT_FALSE(h.client.established());
}

TEST(Tls, TamperedFinishedRejected) {
  Handshake h;
  const crypto::Bytes hello = h.client.hello();
  const auto server_hello = h.server.handle_hello(hello);
  ASSERT_TRUE(server_hello.has_value());
  auto finished = h.client.handle_server_hello(*server_hello);
  ASSERT_TRUE(finished.has_value());
  (*finished)[finished->size() - 1] ^= 1;
  EXPECT_FALSE(h.server.handle_finished(*finished));
  EXPECT_FALSE(h.server.established());
}

TEST(Tls, MitmKeySubstitutionDetected) {
  // A MITM who replaces the server's DH public value cannot forge the
  // transcript MAC without the session keys.
  Handshake h;
  crypto::Drbg mrng = crypto::Drbg::from_label(9, "tls.mitm");
  const crypto::Bytes hello = h.client.hello();
  auto server_hello = h.server.handle_hello(hello);
  ASSERT_TRUE(server_hello.has_value());

  // Splice in the MITM's public value, keep everything else.
  crypto::Reader r(*server_hello);
  (void)r.take(4);
  const crypto::Bytes pub_s = r.lv();
  const crypto::DhKeyPair mitm(crypto::DhGroup::oakley_group2(), mrng);
  crypto::Bytes spliced;
  crypto::append(spliced, crypto::to_bytes("TLSS"));
  crypto::append_lv(spliced, mitm.public_bytes());
  crypto::append_lv(spliced, r.lv());  // nonce_s
  crypto::append_lv(spliced, r.lv());  // original MAC (now wrong)
  EXPECT_FALSE(h.client.handle_server_hello(spliced).has_value());
}

TEST(Tls, MalformedMessagesRejected) {
  Handshake h;
  crypto::Drbg rng = crypto::Drbg::from_label(3, "tls.garbage");
  EXPECT_FALSE(h.server.handle_hello(crypto::to_bytes("junk")).has_value());
  EXPECT_FALSE(h.server.handle_hello(rng.bytes(64)).has_value());
  (void)h.client.hello();
  EXPECT_FALSE(h.client.handle_server_hello(crypto::to_bytes("")).has_value());
}

TEST(Tls, DistinctSessionsDistinctKeys) {
  Handshake h1, h2;
  // Same seeds would collide; use different server rng for h2.
  h2.srng = crypto::Drbg::from_label(7, "tls.server2");
  ASSERT_TRUE(h1.run());
  ASSERT_TRUE(h2.run());
  EXPECT_NE(h1.client.keys().channel_key, h2.client.keys().channel_key);
}

TEST(Tls, KeysUnavailableBeforeEstablished) {
  Handshake h;
  EXPECT_THROW((void)h.client.keys(), std::logic_error);
  EXPECT_THROW((void)h.client.channel(), std::logic_error);
  EXPECT_THROW((void)h.server.keys(), std::logic_error);
}

TEST(Tls, SecretsDeriveDeterministically) {
  const crypto::Bytes shared(64, 0x5a);
  const crypto::Bytes nc(32, 1), ns(32, 2);
  const TlsSecrets a = TlsSecrets::derive(shared, nc, ns);
  const TlsSecrets b = TlsSecrets::derive(shared, nc, ns);
  EXPECT_EQ(a.channel_key, b.channel_key);
  EXPECT_NE(a.channel_key, a.server_mac_key);
  EXPECT_NE(a.server_mac_key, a.client_mac_key);
  // Nonces matter.
  const TlsSecrets c = TlsSecrets::derive(shared, ns, nc);
  EXPECT_NE(a.channel_key, c.channel_key);
}

TEST(TlsKeyMaterial, RejectsAnyLengthButOneAeadKey) {
  const crypto::Bytes key(crypto::Aead::kKeySize, 0x42);
  EXPECT_EQ(TlsKeyMaterial::deserialize(key).serialize(), key);
  for (const size_t n : {size_t{0}, size_t{16}, crypto::Aead::kKeySize - 1,
                         crypto::Aead::kKeySize + 1, size_t{64}}) {
    EXPECT_THROW(TlsKeyMaterial::deserialize(crypto::Bytes(n, 0x42)),
                 std::invalid_argument)
        << n << "-byte key";
  }
}

TEST(TlsKeyMaterial, SeededMutationsAreCanonicalOrRejected) {
  Handshake h;
  ASSERT_TRUE(h.run());
  const test::MutationTally t = test::check_mutations(
      h.client.keys().serialize(),
      [](crypto::BytesView w) {
        return TlsKeyMaterial::deserialize(w).serialize();
      },
      /*seed=*/33);
  for (size_t kind = 0; kind < 3; ++kind) EXPECT_GT(t.by_kind[kind], 0u);
  EXPECT_GT(t.accepted, 0u);  // flips keep the length
  EXPECT_GT(t.rejected, 0u);
}

}  // namespace
}  // namespace tenet::mbox
