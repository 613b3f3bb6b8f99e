// (Mis)Use-class regression tests (DESIGN.md §15).
//
// Each misuse class from the TEE red-team taxonomy is mounted with the
// sgx::adversary toolkit twice: once against a deliberately vulnerable
// fixture — proving both that the attack works and that the detector
// catches it — and once against the production stack, proving the
// defense holds. A test here failing on a "fixed" build means a defense
// regressed; the fixture half failing means the detector regressed.
//
//   class 1  ocall-arg snoop        OcallSnoop vs EchoApp / LeakyApp
//   class 2  unchecked-bounds ecall BlockStoreApp unchecked vs checked,
//                                   plus the PacketSenderApp batch_size=0
//                                   spin (found by boundary_fuzz)
//   class 3  rollback w/o version   SealedBlobVault vs VersionedStoreApp,
//                                   plus a replayed resident EPC page
//   class 4  attest-before-verify   eager challenger vs ChallengerSession,
//                                   plus the msg1 transcript-binding fix
//                                   (found by boundary_fuzz)

#include <gtest/gtest.h>

#include "crypto/dh.h"
#include "sgx/adversary.h"
#include "sgx/apps.h"
#include "sgx/attestation.h"
#include "sgx/platform.h"
#include "sgx/sealing.h"

namespace tenet::sgx {
namespace {

using apps::AttestFn;

struct World {
  Authority authority;
  Vendor vendor{"misuse-vendor"};
  Platform platform{authority, "misuse-host"};
};

// ---------------------------------------------------------------------------
// Class 1 — secrets leaked via ocall arguments.
// ---------------------------------------------------------------------------

constexpr uint32_t kLeakSealKey = 50;

/// EchoApp plus one entry point that ships the enclave's seal key out
/// through an ocall — the textbook class-1 misuse. The snooping host
/// (which in the threat model sees every ocall payload) must catch it.
class LeakyApp final : public EnclaveApp {
 public:
  crypto::Bytes handle_call(uint32_t fn, crypto::BytesView arg,
                            EnclaveEnv& env) override {
    if (fn == kLeakSealKey) {
      // taint-lint: allow(deliberate class-1 fixture — the OcallSnoop
      // test below asserts this exact leak is caught)
      return env.ocall(0x42, env.seal_key(crypto::to_bytes("t")));
    }
    return echo_.handle_call(fn, arg, env);
  }

 private:
  apps::EchoApp echo_;
};

EnclaveImage leaky_image() {
  return EnclaveImage::from_source(
      "misuse-leaky", "tenet misuse fixture: leaky echo v1\n",
      [] { return std::make_unique<LeakyApp>(); });
}

TEST(MisuseOcallSnoop, LeakyEnclaveIsCaught) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, leaky_image());
  adversary::OcallSnoop snoop;
  e.set_ocall_handler(snoop.wrap(
      [](uint32_t, crypto::BytesView) { return crypto::Bytes{}; }));

  // The snoop learns the secret the same way the taint tap does: track
  // the enclave's actual seal key, then watch the boundary.
  const crypto::Bytes key = e.ecall(apps::kEchoSealKey, {});
  ASSERT_EQ(key.size(), 32u);
  snoop.track("seal_key", key);

  e.ecall(kLeakSealKey, {});
  ASSERT_FALSE(snoop.hits().empty());
  EXPECT_EQ(snoop.hits()[0].needle, "seal_key");
  EXPECT_EQ(snoop.hits()[0].code, 0x42u);
}

TEST(MisuseOcallSnoop, ProductionEchoAppLeaksNothing) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  adversary::OcallSnoop snoop;
  e.set_ocall_handler(snoop.wrap(
      [](uint32_t, crypto::BytesView) { return crypto::Bytes{}; }));
  snoop.track("seal_key", e.ecall(apps::kEchoSealKey, {}));

  // Drive every entry point that touches key material or the boundary:
  // seal/unseal derive the key in-enclave; the ocall carries caller data.
  const crypto::Bytes sealed =
      e.ecall(apps::kEchoSeal, crypto::to_bytes("state bytes"));
  e.ecall(apps::kEchoUnseal, sealed);
  e.ecall(apps::kEchoOcall, crypto::to_bytes("host-visible payload"));
  e.ecall(apps::kEchoReverse, crypto::to_bytes("abc"));

  EXPECT_GE(snoop.payloads_observed(), 1u);
  EXPECT_TRUE(snoop.hits().empty());
  // The sealed blob the host stores must not contain the key either.
  EXPECT_EQ(snoop.scan(0xF000, sealed), 0u);
}

// ---------------------------------------------------------------------------
// Class 2 — unchecked host-controlled lengths/offsets in ecall args.
// ---------------------------------------------------------------------------

constexpr uint32_t kReadUnchecked = 1;
constexpr uint32_t kReadChecked = 2;
constexpr size_t kPublicBytes = 32;

/// One contiguous in-enclave buffer: 32 public bytes followed by the
/// 32-byte secret region — the single-allocation layout where a bounds
/// check against the *public* size is the only wall. kReadUnchecked
/// validates the host's (offset, len) against the whole buffer, which is
/// exactly the misuse: an offset past the wall discloses the secret.
class BlockStoreApp final : public EnclaveApp {
 public:
  crypto::Bytes handle_call(uint32_t fn, crypto::BytesView arg,
                            EnclaveEnv& env) override {
    if (buf_.empty()) {
      buf_.assign(kPublicBytes, uint8_t{'P'});
      crypto::append(buf_, env.seal_key(crypto::to_bytes("blk")));
    }
    if (fn == kReadChecked) {
      uint32_t off = 0, len = 0;
      try {
        crypto::Reader r(arg);
        off = r.u32();
        len = r.u32();
      } catch (const std::exception&) {
        return {};  // malformed header: clean reject, no fault
      }
      if (uint64_t{off} + len > kPublicBytes) return {};
      return {buf_.begin() + off, buf_.begin() + off + len};
    }
    if (fn == kReadUnchecked) {
      // No try/catch, no wall: trusts the host like pre-hardening code.
      crypto::Reader r(arg);
      const uint32_t off = r.u32();
      const uint32_t len = r.u32();
      if (uint64_t{off} + len > buf_.size()) return {};
      return {buf_.begin() + off, buf_.begin() + off + len};
    }
    return {};
  }

 private:
  crypto::Bytes buf_;
};

EnclaveImage block_store_image() {
  return EnclaveImage::from_source(
      "misuse-blockstore", "tenet misuse fixture: block store v1\n",
      [] { return std::make_unique<BlockStoreApp>(); });
}

crypto::Bytes read_req(uint32_t off, uint32_t len) {
  crypto::Bytes req;
  crypto::append_u32(req, off);
  crypto::append_u32(req, len);
  return req;
}

TEST(MisuseUncheckedBounds, HostOffsetPastTheWallDisclosesSecrets) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, block_store_image());
  e.set_ocall_handler([](uint32_t, crypto::BytesView) {
    return crypto::Bytes{};
  });
  // Warm the buffer and learn the secret region's expected content.
  ASSERT_FALSE(e.ecall(kReadChecked, read_req(0, kPublicBytes)).empty());

  // The attack: offset straight past the public region.
  const crypto::Bytes leaked =
      e.ecall(kReadUnchecked, read_req(kPublicBytes, 32));
  ASSERT_EQ(leaked.size(), 32u);
  // It really is the secret region, not public padding, and the read is
  // stable — a true disclosure primitive, not garbage bytes.
  EXPECT_NE(leaked, crypto::Bytes(32, uint8_t{'P'}));
  EXPECT_EQ(leaked, e.ecall(kReadUnchecked, read_req(kPublicBytes, 32)));

  // The checked entry point holds the wall for the identical request.
  EXPECT_TRUE(e.ecall(kReadChecked, read_req(kPublicBytes, 32)).empty());
  EXPECT_TRUE(e.ecall(kReadChecked, read_req(kPublicBytes - 1, 2)).empty());
}

TEST(MisuseUncheckedBounds, TruncatedHeaderFaultsUncheckedOnly) {
  World w;
  Enclave& e = w.platform.launch(w.vendor, block_store_image());
  e.set_ocall_handler([](uint32_t, crypto::BytesView) {
    return crypto::Bytes{};
  });
  // The unchecked parser lets the parse error escape the ecall (an AEX in
  // the model); the enclave survives but the host observed a fault it
  // fully controls — a crash oracle.
  EXPECT_THROW(e.ecall(kReadUnchecked, crypto::to_bytes("xy")),
               std::exception);
  EXPECT_TRUE(e.alive());
  // The checked parser rejects the same bytes without faulting.
  EXPECT_TRUE(e.ecall(kReadChecked, crypto::to_bytes("xy")).empty());
}

TEST(MisuseUncheckedBounds, DegenerateBatchRequestRejected) {
  // Regression for the boundary_fuzz finding: batched=true, batch_size=0
  // used to make zero progress per loop turn and spin the enclave in an
  // infinite empty-batch ocall storm. The request must be rejected
  // before the first boundary crossing.
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::packet_sender_image());
  size_t ocalls = 0;
  e.set_ocall_handler([&ocalls](uint32_t, crypto::BytesView) {
    ++ocalls;
    return crypto::Bytes{};
  });
  apps::SendRunRequest req;
  req.packet_count = 4;
  req.packet_size = 8;
  req.encrypt = false;
  req.batched = true;
  req.batch_size = 0;
  EXPECT_TRUE(e.ecall(apps::kSendRun, req.serialize()).empty());
  EXPECT_EQ(ocalls, 0u);
}

// ---------------------------------------------------------------------------
// Class 3 — sealed state without a freshness guarantee (rollback).
// ---------------------------------------------------------------------------

TEST(MisuseRollback, UnversionedSealAcceptsStaleState) {
  // The vulnerable half, demonstrated on plain seal_data: the host owns
  // the blob store, every historical version authenticates, so a replay
  // of epoch=1 after epoch=2 unseals cleanly. Sealing alone CANNOT
  // detect rollback — that is the misuse, and why every production
  // consumer must layer a version check on top.
  World w;
  adversary::SealedBlobVault vault;
  Enclave& e1 = w.platform.launch(w.vendor, apps::echo_image());
  vault.store("state", e1.ecall(apps::kEchoSeal, crypto::to_bytes("epoch=1")));
  vault.store("state", e1.ecall(apps::kEchoSeal, crypto::to_bytes("epoch=2")));
  e1.destroy();

  Enclave& e2 = w.platform.launch(w.vendor, apps::echo_image());
  ASSERT_EQ(vault.versions("state"), 2u);
  const crypto::Bytes stale = vault.replay("state", 0);
  EXPECT_EQ(e2.ecall(apps::kEchoUnseal, stale),
            crypto::to_bytes("epoch=1"));  // accepted: the rollback lands
}

constexpr uint32_t kVStore = 1;
constexpr uint32_t kVLoad = 2;

/// The defense fixture: state carries a monotonic version inside the
/// sealed payload and the enclave refuses to load anything older than
/// what it has already seen this lifetime. (Across restarts the trusted
/// high-water mark must come from peers — the sharded control plane's
/// version vectors; shard_group_test covers the rollback-at-join drill.)
class VersionedStoreApp final : public EnclaveApp {
 public:
  crypto::Bytes handle_call(uint32_t fn, crypto::BytesView arg,
                            EnclaveEnv& env) override {
    switch (fn) {
      case kVStore: {
        crypto::Bytes payload;
        crypto::append_u64(payload, ++version_);
        crypto::append_lv(payload, arg);
        return seal_data(env, crypto::to_bytes("vstate"), payload);
      }
      case kVLoad: {
        const auto payload = unseal_data(env, crypto::to_bytes("vstate"), arg);
        if (!payload.has_value()) return {};
        try {
          crypto::Reader r(*payload);
          const uint64_t version = r.u64();
          if (version < version_) return {};  // rollback detected
          version_ = version;
          return r.lv();
        } catch (const std::exception&) {
          return {};
        }
      }
      default:
        return {};
    }
  }

 private:
  uint64_t version_ = 0;
};

EnclaveImage versioned_store_image() {
  return EnclaveImage::from_source(
      "misuse-vstore", "tenet misuse fixture: versioned store v1\n",
      [] { return std::make_unique<VersionedStoreApp>(); });
}

TEST(MisuseRollback, VersionGuardRefusesReplay) {
  World w;
  adversary::SealedBlobVault vault;
  Enclave& e = w.platform.launch(w.vendor, versioned_store_image());
  vault.store("v", e.ecall(kVStore, crypto::to_bytes("epoch=1")));
  vault.store("v", e.ecall(kVStore, crypto::to_bytes("epoch=2")));

  // Loading the latest version succeeds and advances the high-water mark.
  EXPECT_EQ(e.ecall(kVLoad, vault.latest("v")), crypto::to_bytes("epoch=2"));
  // The replayed older blob authenticates but is refused.
  EXPECT_TRUE(e.ecall(kVLoad, vault.replay("v", 0)).empty());
  // And the current state remains loadable: the guard is not a lockout.
  EXPECT_EQ(e.ecall(kVLoad, vault.latest("v")), crypto::to_bytes("epoch=2"));
}

TEST(MisuseRollback, ResidentReplayFaults) {
  // The same class one level down, in the EPC itself: the host records a
  // resident page's ciphertext, lets the enclave store to the page, then
  // writes the recorded copy back. The MEE seals every content of a page
  // under a fresh trusted version, so the replay authenticates but carries
  // the wrong version: the enclave faults at its next entry and at every
  // entry after that until it is restarted.
  World w;
  Enclave& e = w.platform.launch(w.vendor, apps::echo_image());
  crypto::Bytes arg;
  crypto::append_u32(arg, kPageSize);
  (void)e.ecall(apps::kEchoAlloc, arg);
  Epc& epc = w.platform.epc();
  epc.write_page(e.id(), kHeapBaseVaddr, crypto::to_bytes("epoch=1"));
  const auto stale = epc.adversary_read_ciphertext(e.id(), kHeapBaseVaddr);
  ASSERT_TRUE(stale.has_value());
  epc.write_page(e.id(), kHeapBaseVaddr, crypto::to_bytes("epoch=2"));
  ASSERT_TRUE(epc.adversary_replace_resident(e.id(), kHeapBaseVaddr, *stale));

  for (int entry = 0; entry < 3; ++entry) {
    EXPECT_THROW((void)e.ecall(apps::kEchoReverse, crypto::to_bytes("x")),
                 HardwareFault)
        << "entry " << entry;
  }
  EXPECT_THROW((void)epc.read_page(e.id(), kHeapBaseVaddr), HardwareFault);
  Enclave& fresh = w.platform.restart_enclave(e.id());
  EXPECT_EQ(crypto::to_string(
                fresh.ecall(apps::kEchoReverse, crypto::to_bytes("ok"))),
            "ko");
}

// ---------------------------------------------------------------------------
// Class 4 — acting on attestation evidence before verifying it.
// ---------------------------------------------------------------------------

TEST(MisuseAttestBeforeVerify, EagerChallengerPairsWithMitm) {
  // The vulnerable half, modeled outside the enclave API: an "eager"
  // challenger that does the DH math straight off msg2 and derives a
  // session key WITHOUT verifying the quote. A MITM who substitutes its
  // own DH value and a forged quote ends up sharing that key.
  Authority authority;
  crypto::Drbg rng = crypto::Drbg::from_label(7, "tenet.misuse.attest");
  const crypto::DhGroup& group = crypto::DhGroup::oakley_group2();

  const crypto::Bytes nonce = rng.bytes(32);
  const crypto::DhKeyPair eager_dh(group, rng);

  // The attacker's msg2: own DH public value, fabricated evidence.
  const crypto::DhKeyPair mitm_dh(group, rng);
  const Measurement claimed =
      crypto::Sha256::hash(crypto::to_bytes("whatever-the-policy-wants"));
  const Quote forged = adversary::forge_quote(
      claimed, claimed, /*claimed_platform=*/999,
      make_report_data(crypto::to_bytes("unbound")));
  crypto::Bytes msg2;
  crypto::append(msg2, crypto::to_bytes("ATT2"));
  crypto::append_lv(msg2, forged.serialize());
  crypto::append_lv(msg2, mitm_dh.public_bytes());

  // Eager fixture: parse, DH, derive, use. No verify_quote anywhere.
  crypto::Reader r(msg2);
  r.take(4);
  (void)r.lv();  // "checks later", i.e. never
  const crypto::Bytes peer_pub = r.lv();
  const crypto::Bytes eager_key = detail::derive_session_key(
      eager_dh.shared_secret(crypto::BytesView(peer_pub)), nonce, "chan", 32);

  const crypto::Bytes mitm_key = detail::derive_session_key(
      mitm_dh.shared_secret(crypto::BytesView(eager_dh.public_bytes())), nonce,
      "chan", 32);
  EXPECT_EQ(eager_key, mitm_key);  // the attack lands on the fixture

  // The production ChallengerSession fails closed on the same msg2: the
  // forged quote is rejected, and the session key is simply unreachable
  // before a successful verify.
  AttestationConfig cfg;
  cfg.expect.expect_enclave(claimed);
  ChallengerSession session(authority, cfg, rng);
  (void)session.create_challenge();
  const AttestationOutcome out = session.consume_response(msg2);
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(session.established());
  EXPECT_THROW((void)session.session_key("chan"), std::logic_error);
}

/// Figure-1 cast used by the wire-tampering tests below.
struct AttestWorld {
  AttestWorld() {
    config.expect.expect_enclave(
        apps::target_image(authority, config).measure());
    challenger = &challenger_platform.launch(
        vendor, apps::challenger_image(authority, config));
    target =
        &target_platform.launch(vendor, apps::target_image(authority, config));
  }

  Authority authority;
  Vendor vendor{"app-vendor"};
  AttestationConfig config;
  Platform challenger_platform{authority, "challenger-host"};
  Platform target_platform{authority, "target-host"};
  Enclave* challenger = nullptr;
  Enclave* target = nullptr;
};

TEST(MisuseAttestBeforeVerify, SplicedReportDataRejected) {
  // Session-splicing MITM: replay a genuine, authority-signed quote with
  // substituted REPORTDATA. Consumers that skip the binding check accept
  // it; ChallengerSession must not.
  AttestWorld w;
  const crypto::Bytes msg1 = w.challenger->ecall(AttestFn::kCreateChallenge, {});
  const crypto::Bytes msg2 = w.target->ecall(AttestFn::kHandleChallenge, msg1);
  ASSERT_FALSE(msg2.empty());

  crypto::Reader r(msg2);
  r.take(4);
  const Quote genuine = Quote::deserialize(r.lv());
  const crypto::Bytes dh_pub = r.lv();
  const Quote spliced = adversary::splice_report_data(
      genuine, make_report_data(crypto::to_bytes("attacker session")));

  crypto::Bytes tampered;
  crypto::append(tampered, crypto::to_bytes("ATT2"));
  crypto::append_lv(tampered, spliced.serialize());
  crypto::append_lv(tampered, dh_pub);

  const crypto::Bytes result =
      w.challenger->ecall(AttestFn::kConsumeResponse, tampered);
  ASSERT_FALSE(result.empty());
  EXPECT_EQ(result[0], 0);  // rejected
}

TEST(MisuseAttestBeforeVerify, FlippedReservedFlagBitFailsClosed) {
  // Regression for the boundary_fuzz finding: a bit flipped in msg1's
  // reserved flag bits used to survive the whole handshake — the quote
  // binding covered only the nonce, so nothing tied the rest of the
  // challenge bytes down. With transcript binding the two sides' hashes
  // diverge and the handshake must fail closed.
  AttestWorld w;
  crypto::Bytes msg1 = w.challenger->ecall(AttestFn::kCreateChallenge, {});
  ASSERT_GT(msg1.size(), 4u);
  msg1[4] ^= 0x80;  // flags byte follows the 4-byte tag; 0x80 is reserved

  const crypto::Bytes msg2 = w.target->ecall(AttestFn::kHandleChallenge, msg1);
  if (!msg2.empty()) {
    const crypto::Bytes result =
        w.challenger->ecall(AttestFn::kConsumeResponse, msg2);
    ASSERT_FALSE(result.empty());
    EXPECT_EQ(result[0], 0) << "bit-flipped challenge was accepted";
  }
  // Either way, no shared key can exist for the mutated transcript.
  EXPECT_TRUE(w.challenger->ecall(AttestFn::kGetSessionKey,
                                  crypto::to_bytes("chan"))
                  .empty());
}

}  // namespace
}  // namespace tenet::sgx
