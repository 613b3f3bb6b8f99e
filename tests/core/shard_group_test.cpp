// Sharded, replicated enclave control plane (DESIGN.md §14). The four
// acceptance properties pinned here:
//   1. a 1-shard configured group is byte-identical on the wire to an
//      unsharded run under the same seed (sharding costs nothing until a
//      second replica exists);
//   2. killing a shard mid-deployment and rejoining it later loses no
//      admitted state (replication + re-forwarding + attested rejoin);
//   3. a patched (wrong-measurement) replica is rejected at the state
//      transfer layer even when the app's attestation policy admits it;
//   4. a rolled-back sealed snapshot (stale version vector) is refused by
//      a joiner that provably observed more.
// Plus the split-brain drill on the net.fault.partition primitive: the
// minority side fails closed while the majority keeps admitting.
#include "core/shard_group.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "core/node.h"
#include "core/open_project.h"
#include "core/ports.h"
#include "routing/scenario.h"

namespace tenet::core {
namespace {

// ---------------------------------------------------------------------------
// Ledger harness: a minimal SecureApp whose admitted state is a key->blob
// map, replicated through a shard group. Exercises the replica protocol
// without the routing/Tor/mbox application logic on top.
// ---------------------------------------------------------------------------

enum LedgerControl : uint32_t {
  kLedgerConfigure = 1,  // serialized ShardConfig
  kLedgerAdmit = 2,      // u64 key | LV entry -> u8 admitted
  kLedgerCount = 3,      // -> u64
  kLedgerJoin = 4,       // empty (begin_join)
  kLedgerReachable = 5,  // u32 shard | u8 up
  kLedgerEntries = 6,    // -> u32 n | (u64 key | LV entry)...
  kLedgerAppMessages = 7,  // -> u64 app messages delivered to the hook
  kLedgerInject = 100,   // u32 peer | LV frame -> u8 consumed (red-team)
};

class LedgerApp final : public SecureApp {
 public:
  using SecureApp::SecureApp;

  void on_secure_message(Ctx&, netsim::NodeId, crypto::BytesView) override {}

  crypto::Bytes on_control(Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override {
    switch (subfn) {
      case kLedgerConfigure: {
        ShardReplica::Hooks hooks;
        hooks.apply = [this](Ctx& c, uint32_t, uint64_t key,
                             crypto::BytesView entry) {
          c.alloc(entry.size());
          entries_[key] = crypto::Bytes(entry.begin(), entry.end());
        };
        hooks.snapshot = [this](Ctx&) { return serialize(); };
        // Merge semantics per the install contract: union the donor's
        // entries into ours (load() inserts without clearing).
        hooks.install = [this](Ctx&, crypto::BytesView state) {
          return load(state);
        };
        hooks.app_message = [this](Ctx&, uint32_t, crypto::BytesView) {
          ++app_messages_;
        };
        enable_sharding(ctx, ShardConfig::deserialize(arg), std::move(hooks));
        return {};
      }
      case kLedgerAdmit: {
        crypto::Reader r(arg);
        const uint64_t key = r.u64();
        const crypto::BytesView entry = r.lv_view();
        crypto::Bytes out;
        if (shard() != nullptr && shard()->active() && !shard()->serving()) {
          out.push_back(0);  // minority partition: fail closed
          return out;
        }
        if (shard() != nullptr && shard()->active()) {
          shard()->admit(ctx, key, entry);
        }
        ctx.alloc(entry.size());
        entries_[key] = crypto::Bytes(entry.begin(), entry.end());
        out.push_back(1);
        return out;
      }
      case kLedgerCount: {
        crypto::Bytes out;
        crypto::append_u64(out, entries_.size());
        return out;
      }
      case kLedgerJoin:
        if (shard() != nullptr) shard()->begin_join(ctx);
        return {};
      case kLedgerReachable:
        if (shard() != nullptr && arg.size() >= 5) {
          shard()->set_reachable(ctx, crypto::read_u32(arg, 0), arg[4] != 0);
        }
        return {};
      case kLedgerEntries:
        return serialize();
      case kLedgerAppMessages: {
        crypto::Bytes out;
        crypto::append_u64(out, app_messages_);
        return out;
      }
      case kLedgerInject: {
        // Red-team control port (mirrors the boundary fuzzer's): hands an
        // arbitrary byte string to ShardReplica::handle_secure as if it
        // had arrived authenticated from `peer` — the post-decryption
        // hostile-frame surface, with the transport layer bypassed.
        crypto::Reader r(arg);
        const netsim::NodeId peer = r.u32();
        const crypto::BytesView frame = r.lv_view();
        crypto::Bytes out;
        out.push_back(
            shard() != nullptr && shard()->handle_secure(ctx, peer, frame)
                ? 1
                : 0);
        return out;
      }
      default:
        return {};
    }
  }

  crypto::Bytes on_checkpoint(Ctx&) override { return serialize(); }
  void on_restore(Ctx&, crypto::BytesView state) override { (void)load(state); }

 private:
  [[nodiscard]] crypto::Bytes serialize() const {
    crypto::Bytes out;
    crypto::append_u32(out, static_cast<uint32_t>(entries_.size()));
    for (const auto& [key, entry] : entries_) {
      crypto::append_u64(out, key);
      crypto::append_lv(out, entry);
    }
    return out;
  }
  bool load(crypto::BytesView state) {
    try {
      crypto::Reader r(state);
      const uint32_t n = r.u32();
      for (uint32_t i = 0; i < n; ++i) {
        const uint64_t key = r.u64();
        entries_[key] = r.lv();
      }
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }

  std::map<uint64_t, crypto::Bytes> entries_;
  uint64_t app_messages_ = 0;
};

crypto::Bytes shard_cfg(uint32_t self, const std::vector<ShardMember>& members,
                        uint32_t replication = 2) {
  ShardConfig cfg;
  cfg.self = self;
  cfg.replication = replication;
  cfg.members = members;
  return cfg.serialize();
}

crypto::Bytes admit_arg(uint64_t key, std::string_view entry) {
  crypto::Bytes arg;
  crypto::append_u64(arg, key);
  crypto::append_lv(arg, crypto::to_bytes(entry));
  return arg;
}

bool admit(EnclaveNode& node, uint64_t key, std::string_view entry) {
  const crypto::Bytes out = node.control(kLedgerAdmit, admit_arg(key, entry));
  return !out.empty() && out[0] == 1;
}

uint64_t entry_count(EnclaveNode& node) {
  return crypto::read_u64(node.control(kLedgerCount), 0);
}

/// N ledger replicas on one simulator, all built from the same project.
struct LedgerWorld {
  explicit LedgerWorld(size_t n, uint64_t seed = 1)
      : sim(seed), project("ledger", "tenet ledger app v1\n", nullptr) {
    const sgx::AttestationConfig cfg = project.policy(/*mutual=*/true);
    const sgx::Authority* auth = &authority;
    sgx::EnclaveImage image = project.build();
    image.factory = [auth, cfg] {
      return std::make_unique<LedgerApp>(*auth, cfg);
    };
    for (size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<EnclaveNode>(
          sim, authority, "ledger-" + std::to_string(i),
          project.foundation(), image));
      nodes.back()->start();
      members.push_back(
          ShardMember{static_cast<uint32_t>(i), nodes.back()->id()});
    }
  }

  /// Pushes the shard config to every replica and runs ring attestation.
  void configure() {
    for (size_t i = 0; i < nodes.size(); ++i) {
      nodes[i]->control(kLedgerConfigure,
                        shard_cfg(static_cast<uint32_t>(i), members));
    }
    sim.run();
  }

  void hint(size_t node, uint32_t shard, bool up) {
    crypto::Bytes arg;
    crypto::append_u32(arg, shard);
    arg.push_back(up ? 1 : 0);
    nodes[node]->control(kLedgerReachable, arg);
  }

  netsim::Simulator sim;
  sgx::Authority authority;
  OpenProject project;
  std::vector<std::unique_ptr<EnclaveNode>> nodes;
  std::vector<ShardMember> members;
};

// ---------------------------------------------------------------------------
// ShardMap: placement is deterministic and actually spreads small keys
// ---------------------------------------------------------------------------

TEST(ShardMapPlacement, SmallKeysSpreadAcrossShards) {
  // Regression: ring points are mix64((shard << 32) | v), so unsalted key
  // hashing collided exactly with shard 0's virtual nodes for every key
  // < kVirtualNodes — pinning all ASNs/node ids/session ids to shard 0.
  const std::vector<ShardMember> members = {{0, 100}, {1, 101}, {2, 102}};
  const ShardMap map(members);
  std::map<uint32_t, size_t> hits;
  for (uint64_t key = 1; key <= 64; ++key) ++hits[map.owner(key)];
  EXPECT_EQ(hits.size(), members.size()) << "some shard owns no small key";
  for (const auto& [shard, n] : hits) {
    EXPECT_LT(n, 64u) << "shard " << shard << " owns every key";
  }
}

TEST(ShardMapPlacement, RouterAndReplicasAgree) {
  const std::vector<ShardMember> members = {{0, 100}, {1, 101}, {2, 102}};
  const ShardMap map(members);
  const ShardRouter router{ShardMap(members)};
  for (uint64_t key = 1; key <= 200; ++key) {
    EXPECT_EQ(router.route_shard(key), map.owner(key)) << "key " << key;
    EXPECT_EQ(router.route(key), map.node(map.owner(key)));
  }
}

TEST(ShardMapPlacement, DownShardFallsBackToSuccessorOrder) {
  // The router's fallback direction must equal the replication direction:
  // the successor shard is exactly the one holding the replica.
  const std::vector<ShardMember> members = {{0, 100}, {1, 101}, {2, 102}};
  const ShardMap map(members);
  ShardRouter router{ShardMap(members)};
  for (uint64_t key = 1; key <= 50; ++key) {
    const uint32_t home = map.owner(key);
    router.set_down(home, true);
    EXPECT_EQ(router.route_shard(key), map.successor(home)) << "key " << key;
    router.set_down(home, false);
  }
}

// ---------------------------------------------------------------------------
// 1. Single-shard byte-identity
// ---------------------------------------------------------------------------

struct WireRecord {
  netsim::NodeId src;
  netsim::NodeId dst;
  uint32_t port;
  crypto::Bytes payload;
  bool operator==(const WireRecord&) const = default;
};

std::vector<WireRecord> run_routing_wiretap(bool configure_one_shard) {
  routing::ScenarioConfig cfg;
  cfg.n_ases = 6;
  cfg.seed = 2015;
  routing::RoutingDeployment dep(cfg);
  if (configure_one_shard) {
    // A 1-member group, configured by hand (the scenario only pushes a
    // config when shards > 1). It must be completely inert.
    dep.controller_node()->control(
        routing::kCtlConfigureShard,
        shard_cfg(0, {ShardMember{0, dep.controller_node()->id()}}));
  }
  std::vector<WireRecord> wire;
  dep.sim().set_wiretap([&wire](const netsim::Message& m) {
    wire.push_back(WireRecord{m.src, m.dst, m.port, m.payload});
  });
  dep.run_attestation_phase();
  dep.run_routing_phase();
  return wire;
}

TEST(ShardGroup, SingleShardConfiguredRunIsByteIdenticalToUnsharded) {
  const std::vector<WireRecord> plain = run_routing_wiretap(false);
  const std::vector<WireRecord> sharded = run_routing_wiretap(true);
  ASSERT_FALSE(plain.empty());
  ASSERT_EQ(plain.size(), sharded.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], sharded[i]) << "wire message " << i << " diverged";
  }
}

// ---------------------------------------------------------------------------
// 2. Kill-and-rejoin loses no admitted state (full routing deployment)
// ---------------------------------------------------------------------------

TEST(ShardGroup, KillAndRejoinLosesNoAdmittedState) {
  routing::ScenarioConfig cfg;
  cfg.n_ases = 12;
  cfg.seed = 5;
  cfg.shards = 3;
  cfg.robust = true;  // ASes re-attest + re-submit after failover on their own
  routing::RoutingDeployment dep(cfg);
  dep.run_attestation_phase();
  dep.run_routing_phase();

  const routing::ComputationResult expected =
      routing::BgpComputation::compute(dep.policies());
  const auto tables_match = [&] {
    for (const auto& [asn, policy] : dep.policies()) {
      const routing::RoutingTable table = dep.table_of(asn);
      const auto it = expected.tables.find(asn);
      ASSERT_NE(it, expected.tables.end());
      ASSERT_EQ(table.size(), it->second.size()) << "AS " << asn;
      for (const auto& [prefix, route] : table) {
        EXPECT_EQ(route.as_path, it->second.at(prefix).as_path)
            << "AS " << asn << " prefix " << prefix;
      }
    }
  };
  tables_match();

  // Kill a non-owner shard that actually fronts at least one AS, so the
  // drill moves real clients and real admitted state.
  size_t victim = 0;
  for (size_t s = 1; s < dep.shard_count() && victim == 0; ++s) {
    for (const auto& [asn, policy] : dep.policies()) {
      if (dep.shard_of_as(asn) == s) {
        victim = s;
        break;
      }
    }
  }
  ASSERT_NE(victim, 0u) << "no extra shard fronts an AS at this seed";

  ASSERT_TRUE(dep.kill_shard(victim));
  dep.sim().run();

  // Zero admitted-state loss: the aggregation owner still holds every
  // policy, stays serving (2-of-3 majority), and every AS — including the
  // re-pointed ones — still resolves the exact same routing tables.
  EXPECT_EQ(crypto::read_u64(
                dep.shard_node(0)->control(routing::kCtlPoliciesReceived), 0),
            cfg.n_ases);
  EXPECT_EQ(dep.shard_node(0)->query(kQueryShardServing), 1u);
  for (const auto& [asn, policy] : dep.policies()) {
    EXPECT_TRUE(dep.as_has_routes(asn)) << "AS " << asn;
  }
  tables_match();

  // Rejoin: recovered from image + sealed checkpoint, attested state
  // transfer brings the replica back to the full picture.
  ASSERT_TRUE(dep.heal_shard(victim));
  dep.sim().run();

  core::EnclaveNode* healed = dep.shard_node(victim);
  EXPECT_EQ(healed->query(kQueryShardJoined), 1u);
  EXPECT_EQ(healed->query(kQueryShardRollbacksRefused), 0u);
  EXPECT_EQ(crypto::read_u64(
                healed->control(routing::kCtlPoliciesReceived), 0),
            cfg.n_ases);
  EXPECT_EQ(healed->query(kQueryShardServing), 1u);
  tables_match();
}

// ---------------------------------------------------------------------------
// Sharded controller: a shard distributes tables only when the inputs of
// its last distribution pass (own slice, members' partial rows, the fronts
// it derives from the live set) have changed, and every change still
// reaches every AS from the shard the router points it at.
// ---------------------------------------------------------------------------

uint32_t local_pref_of(const routing::RoutingPolicy& p,
                       routing::AsNumber nbr) {
  const auto it = p.local_pref.find(nbr);
  return it != p.local_pref.end() ? it->second : 0;
}

struct ShardedRouting {
  ShardedRouting() : dep(config()) {
    dep.run_attestation_phase();
    dep.run_routing_phase();
  }

  static routing::ScenarioConfig config() {
    routing::ScenarioConfig cfg;
    cfg.n_ases = 24;
    cfg.seed = 11;
    cfg.shards = 4;
    cfg.robust = true;
    return cfg;
  }

  /// ASes whose received table differs from `truth` (path or preference).
  std::vector<routing::AsNumber> mismatched(
      const routing::ComputationResult& truth) {
    std::vector<routing::AsNumber> bad;
    for (const auto& [asn, policy] : dep.policies()) {
      const routing::RoutingTable table = dep.table_of(asn);
      const auto it = truth.tables.find(asn);
      const size_t want = it != truth.tables.end() ? it->second.size() : 0;
      bool ok = table.size() == want;
      for (const auto& [prefix, route] : table) {
        if (!ok) break;
        const auto jt = it->second.find(prefix);
        ok = jt != it->second.end() && jt->second.as_path == route.as_path &&
             jt->second.pref == route.pref;
      }
      if (!ok) bad.push_back(asn);
    }
    return bad;
  }

  /// Messages from any controller shard to any AS node while `fn` runs
  /// (route advertisements and verdicts are the only such traffic). Each
  /// one sent by a shard other than the one the router points the AS at
  /// also counts in `misrouted`.
  size_t shard_to_as_messages(const std::function<void()>& fn) {
    std::set<netsim::NodeId> shards;
    std::map<netsim::NodeId, routing::AsNumber> ases;
    for (size_t i = 0; i < dep.shard_count(); ++i) {
      shards.insert(dep.shard_node(i)->id());
    }
    for (const auto& [asn, policy] : dep.policies()) {
      ases[dep.as_node(asn)->id()] = asn;
    }
    size_t n = 0;
    dep.sim().set_wiretap([&](const netsim::Message& m) {
      const auto as = ases.find(m.dst);
      if (!shards.contains(m.src) || as == ases.end()) return;
      ++n;
      if (m.src != dep.router().route(as->second)) ++misrouted;
    });
    fn();
    dep.sim().set_wiretap(nullptr);
    return n;
  }

  /// Messages between controller shards (replication, policy floods,
  /// partial rows) while `fn` runs.
  size_t shard_to_shard_messages(const std::function<void()>& fn) {
    std::set<netsim::NodeId> shards;
    for (size_t i = 0; i < dep.shard_count(); ++i) {
      shards.insert(dep.shard_node(i)->id());
    }
    size_t n = 0;
    dep.sim().set_wiretap([&](const netsim::Message& m) {
      if (shards.contains(m.src) && shards.contains(m.dst)) ++n;
    });
    fn();
    dep.sim().set_wiretap(nullptr);
    return n;
  }

  /// Every AS resubmits its policy unchanged, one at a time, each run until
  /// quiet; returns the shard-to-shard messages each resubmission caused.
  std::map<routing::AsNumber, size_t> resubmit_all() {
    std::map<routing::AsNumber, size_t> sent;
    for (const auto& [asn, policy] : dep.policies()) {
      sent[asn] = shard_to_shard_messages([&] {
        (void)dep.as_node(asn)->control(routing::kCtlSubmitPolicy, {});
        dep.sim().run();
      });
    }
    return sent;
  }

  routing::RoutingDeployment dep;
  size_t misrouted = 0;
};

TEST(ShardedController, UnchangedResubmissionSendsNoAdvertisement) {
  ShardedRouting w;
  const routing::ComputationResult truth =
      routing::BgpComputation::compute(w.dep.policies());
  ASSERT_TRUE(w.mismatched(truth).empty());
  for (const auto& [asn, policy] : w.dep.policies()) {
    const size_t sent = w.shard_to_as_messages([&] {
      (void)w.dep.as_node(asn)->control(routing::kCtlSubmitPolicy, {});
      w.dep.sim().run();
    });
    EXPECT_EQ(sent, 0u) << "AS " << asn << " resubmitted an unchanged policy";
  }
  EXPECT_TRUE(w.mismatched(truth).empty());
}

/// One change per AS that hears two same-class, same-length offers for
/// some prefix: raising the losing neighbor's local pref flips its choice
/// and that of the ASes routing through it. The changes are applied one at
/// a time, each checked against the ground truth of the updated set, and
/// every table must come from the shard the router points its AS at.
/// `policies` ends as the changed policy set.
void expect_live_changes_reach_every_affected_as(
    ShardedRouting& w,
    std::map<routing::AsNumber, routing::RoutingPolicy>& policies) {
  // Settle every shard on an unchanged resubmission first, so each change
  // below lands on shards whose last pass is current.
  (void)w.resubmit_all();
  policies = w.dep.policies();
  ASSERT_TRUE(w.mismatched(routing::BgpComputation::compute(policies)).empty());

  size_t changes = 0;
  for (const auto& [who, policy] : w.dep.policies()) {
    const routing::ComputationResult before =
        routing::BgpComputation::compute(policies);
    routing::AsNumber favorite = 0;
    const auto cands_of = before.candidates.find(who);
    if (cands_of == before.candidates.end()) continue;
    for (const auto& [prefix, cands] : cands_of->second) {
      const routing::Route* chosen = before.route_of(who, prefix);
      if (chosen == nullptr || favorite != 0) continue;
      for (const routing::Route& c : cands) {
        if (c.next_hop() != chosen->next_hop() &&
            c.learned_from == chosen->learned_from &&
            c.path_length() == chosen->path_length() &&
            local_pref_of(policies.at(who), c.next_hop()) != 99) {
          favorite = c.next_hop();
          break;
        }
      }
    }
    if (favorite == 0) continue;

    policies.at(who).local_pref[favorite] = 99;
    const routing::ComputationResult after =
        routing::BgpComputation::compute(policies);
    const std::vector<routing::AsNumber> affected = w.mismatched(after);
    ASSERT_FALSE(affected.empty()) << "AS " << who;

    crypto::Bytes arg;
    crypto::append_u32(arg, favorite);
    crypto::append_u32(arg, 99);
    (void)w.dep.as_node(who)->control(routing::kCtlUpdateLocalPref, arg);
    const size_t sent = w.shard_to_as_messages([&] {
      (void)w.dep.as_node(who)->control(routing::kCtlSubmitPolicy, {});
      w.dep.sim().run();
    });
    EXPECT_GE(sent, affected.size()) << "AS " << who;
    EXPECT_EQ(w.mismatched(after), std::vector<routing::AsNumber>{})
        << "after AS " << who << " prefers AS " << favorite;
    ++changes;
  }
  EXPECT_GE(changes, 4u);
  EXPECT_EQ(w.misrouted, 0u);
}

TEST(ShardedController, LivePolicyChangesReachEveryAffectedAs) {
  ShardedRouting w;
  std::map<routing::AsNumber, routing::RoutingPolicy> policies;
  expect_live_changes_reach_every_affected_as(w, policies);
}

// While a shard is down, every survivor derives the same front for each AS
// as the router does: the dead shard's ASes get their changed tables from
// its first live successor, and no other AS's front moves. The healed
// shard restarts from a checkpoint taken before the changes; once its
// rejoin settles, every table is at the changed set's ground truth.
TEST(ShardedController, LivePolicyChangesDuringAnOutageComeFromTheRoutedShard) {
  ShardedRouting w;
  ASSERT_TRUE(w.dep.kill_shard(1));
  w.dep.sim().run();
  std::map<routing::AsNumber, routing::RoutingPolicy> policies;
  expect_live_changes_reach_every_affected_as(w, policies);
  ASSERT_TRUE(w.dep.heal_shard(1));
  w.dep.sim().run();
  EXPECT_EQ(w.mismatched(routing::BgpComputation::compute(policies)),
            std::vector<routing::AsNumber>{});
}

// After a kill and a heal every replica derives the same front for each AS
// as the router does, so a change still reaches every affected AS, and only
// from the shard that AS is attached to.
TEST(ShardedController, LivePolicyChangesAfterKillAndHealComeFromTheRoutedShard) {
  ShardedRouting w;
  ASSERT_TRUE(w.dep.kill_shard(1));
  w.dep.sim().run();
  ASSERT_TRUE(w.dep.heal_shard(1));
  w.dep.sim().run();
  std::map<routing::AsNumber, routing::RoutingPolicy> policies;
  expect_live_changes_reach_every_affected_as(w, policies);
}

// Steady state survives failover: once a killed shard has healed, an
// unchanged resubmission costs the shard group no more messages than it did
// before the kill (no AS is re-bound, no slice is recomputed), and every
// table stays at ground truth.
TEST(ShardedController, KillAndHealLeaveUnchangedResubmissionsNoCostlier) {
  ShardedRouting w;
  const routing::ComputationResult truth =
      routing::BgpComputation::compute(w.dep.policies());
  const std::map<routing::AsNumber, size_t> before = w.resubmit_all();
  ASSERT_TRUE(w.dep.kill_shard(1));
  w.dep.sim().run();
  ASSERT_TRUE(w.dep.heal_shard(1));
  w.dep.sim().run();
  EXPECT_EQ(w.mismatched(truth), std::vector<routing::AsNumber>{});
  const std::map<routing::AsNumber, size_t> after = w.resubmit_all();
  size_t total_before = 0;
  size_t total_after = 0;
  for (const auto& [asn, n] : before) {
    EXPECT_LE(after.at(asn), n) << "AS " << asn;
    total_before += n;
    total_after += after.at(asn);
  }
  EXPECT_LE(total_after, total_before);
  EXPECT_EQ(w.mismatched(truth), std::vector<routing::AsNumber>{});
}

TEST(ShardedController, KillThenHealLeavesEveryTableAtGroundTruth) {
  ShardedRouting w;
  const routing::ComputationResult truth =
      routing::BgpComputation::compute(w.dep.policies());
  for (size_t victim = 1; victim < w.dep.shard_count(); ++victim) {
    ASSERT_TRUE(w.dep.kill_shard(victim));
    w.dep.sim().run();
    EXPECT_EQ(w.mismatched(truth), std::vector<routing::AsNumber>{})
        << "after killing shard " << victim;
    ASSERT_TRUE(w.dep.heal_shard(victim));
    w.dep.sim().run();
    EXPECT_EQ(w.mismatched(truth), std::vector<routing::AsNumber>{})
        << "after healing shard " << victim;
  }
}

// ---------------------------------------------------------------------------
// 3. Patched replica rejected at attested state transfer
// ---------------------------------------------------------------------------

TEST(ShardGroup, PatchedReplicaGetsNoStateDespiteLooseAttestationPolicy) {
  netsim::Simulator sim(/*seed=*/3);
  sgx::Authority authority;
  OpenProject genuine("ledger", "tenet ledger app v1\n", nullptr);
  OpenProject patched("ledger-patched",
                      "tenet ledger app v1 (patched: exfiltrates entries)\n",
                      nullptr);
  ASSERT_FALSE(genuine.measurement() == patched.measurement());

  // Deliberately loose app-level policy: it admits BOTH builds (and drops
  // the signer pin), modeling a host that slipped a patched binary past a
  // sloppy attestation config.
  sgx::AttestationConfig loose = genuine.policy(/*mutual=*/true);
  loose.expect.also_accept(patched.measurement());
  loose.expect.mr_signer.reset();
  const sgx::Authority* auth = &authority;
  const auto factory = [auth, loose] {
    return std::make_unique<LedgerApp>(*auth, loose);
  };
  sgx::EnclaveImage gimage = genuine.build();
  gimage.factory = factory;
  sgx::EnclaveImage pimage = patched.build();
  pimage.factory = factory;

  EnclaveNode g(sim, authority, "genuine", genuine.foundation(), gimage);
  EnclaveNode p(sim, authority, "patched", patched.foundation(), pimage);
  g.start();
  p.start();

  const std::vector<ShardMember> members = {ShardMember{0, g.id()},
                                            ShardMember{1, p.id()}};
  g.control(kLedgerConfigure, shard_cfg(0, members));
  p.control(kLedgerConfigure, shard_cfg(1, members));
  sim.run();

  // Attestation itself succeeds (the loose policy admits the patched
  // measurement)...
  ASSERT_EQ(g.query(kQueryAttestedPeerCount), 1u);
  ASSERT_EQ(p.query(kQueryAttestedPeerCount), 1u);

  // ...but replication refuses to cross the measurement boundary: the
  // patched replica drops the genuine shard's append (not its image), so
  // no admitted entry ever lands there.
  EXPECT_TRUE(admit(g, 7, "route-7"));
  sim.run();
  EXPECT_EQ(p.query(kQueryShardEntriesApplied), 0u);
  EXPECT_GE(p.query(kQueryShardRejectedPeers), 1u);
  EXPECT_EQ(entry_count(p), 0u);

  // And the genuine donor refuses to serve the patched joiner a snapshot:
  // the join request dies at the gate and the joiner never completes.
  p.control(kLedgerJoin);
  sim.run();
  EXPECT_GE(g.query(kQueryShardRejectedPeers), 1u);
  EXPECT_EQ(p.query(kQueryShardJoined), 0u);
  EXPECT_EQ(entry_count(p), 0u);
}

// ---------------------------------------------------------------------------
// 4. Rolled-back sealed snapshot refused
// ---------------------------------------------------------------------------

TEST(ShardGroup, StaleSnapshotFromRolledBackDonorIsRefused) {
  LedgerWorld w(2, /*seed=*/4);
  w.configure();
  ASSERT_EQ(w.nodes[0]->query(kQueryAttestedPeerCount), 1u);

  // Two admissions, sealed checkpoint on node 0 — then three more. The
  // host now holds a stale-but-authentic sealed blob for node 0.
  EXPECT_TRUE(admit(*w.nodes[0], 1, "alpha"));
  EXPECT_TRUE(admit(*w.nodes[0], 2, "beta"));
  w.sim.run();
  w.nodes[0]->checkpoint();  // seals versions up to 2
  EXPECT_TRUE(admit(*w.nodes[0], 3, "gamma"));
  EXPECT_TRUE(admit(*w.nodes[0], 4, "delta"));
  EXPECT_TRUE(admit(*w.nodes[0], 5, "epsilon"));
  w.sim.run();
  ASSERT_EQ(entry_count(*w.nodes[1]), 5u);
  w.nodes[1]->checkpoint();  // seals versions up to 5

  // Crash both. Node 1 restores its own (current) checkpoint; node 0 is
  // rolled back by the host to the stale blob — the rollback attack.
  w.nodes[1]->inject_fault();
  ASSERT_TRUE(w.nodes[1]->recover());
  w.nodes[1]->control(kLedgerConfigure, shard_cfg(1, w.members));
  w.nodes[0]->inject_fault();
  ASSERT_TRUE(w.nodes[0]->recover());
  w.nodes[0]->control(kLedgerConfigure, shard_cfg(0, w.members));
  ASSERT_EQ(entry_count(*w.nodes[0]), 2u);  // the rollback "took" locally
  EXPECT_EQ(w.nodes[1]->query(kQueryShardVersionTotal), 5u);

  // Node 1 rejoins and is offered the rolled-back state: its restored
  // version vector provably observed more, so it refuses the snapshot and
  // keeps its five entries.
  w.nodes[1]->control(kLedgerJoin);
  w.sim.run();
  EXPECT_EQ(w.nodes[1]->query(kQueryShardRollbacksRefused), 1u);
  EXPECT_EQ(w.nodes[1]->query(kQueryShardJoined), 0u);
  EXPECT_EQ(entry_count(*w.nodes[1]), 5u);

  // Control: the rolled-back node itself rejoins from the fresher donor —
  // that snapshot dominates and installs, healing the rollback.
  w.nodes[0]->control(kLedgerJoin);
  w.sim.run();
  EXPECT_EQ(w.nodes[0]->query(kQueryShardJoined), 1u);
  EXPECT_EQ(entry_count(*w.nodes[0]), 5u);
  EXPECT_EQ(w.nodes[0]->query(kQueryShardVersionTotal), 5u);
  EXPECT_EQ(w.nodes[0]->control(kLedgerEntries),
            w.nodes[1]->control(kLedgerEntries));
}

// ---------------------------------------------------------------------------
// Split-brain: minority fails closed, majority serves, heal converges
// ---------------------------------------------------------------------------

TEST(ShardGroup, PartitionedMinorityFailsClosedMajorityServes) {
  LedgerWorld w(3, /*seed=*/6);
  w.configure();

  // Cut {0, 1} from {2} with the simulator's partition primitive, and give
  // every replica the matching host liveness hints (the hints only steer
  // availability; the partition makes them truthful).
  const double t0 = w.sim.now();
  w.sim.fault_plan().add_partition({w.nodes[0]->id(), w.nodes[1]->id()},
                                   {w.nodes[2]->id()}, t0, t0 + 50.0);
  w.hint(0, 2, false);
  w.hint(1, 2, false);
  w.hint(2, 0, false);
  w.hint(2, 1, false);

  // Majority side (2 of 3) keeps admitting; the entry replicates within
  // the partition (the ring skips the unreachable shard).
  EXPECT_EQ(w.nodes[0]->query(kQueryShardServing), 1u);
  EXPECT_TRUE(admit(*w.nodes[0], 10, "majority-entry"));
  w.sim.run();
  EXPECT_EQ(entry_count(*w.nodes[1]), 1u);

  // Minority side fails closed: not serving, admission refused, nothing
  // stored — no divergent history that a heal would have to reconcile.
  EXPECT_EQ(w.nodes[2]->query(kQueryShardServing), 0u);
  EXPECT_FALSE(admit(*w.nodes[2], 99, "minority-entry"));
  EXPECT_EQ(entry_count(*w.nodes[2]), 0u);

  // Heal: advance past the partition window, flip the hints, rejoin. The
  // minority catches up via attested state transfer and serves again.
  w.sim.schedule_timer(t0 + 60.0 - w.sim.now(), netsim::kInvalidNode, [] {});
  w.sim.run();
  w.hint(0, 2, true);
  w.hint(1, 2, true);
  w.hint(2, 0, true);
  w.hint(2, 1, true);
  w.sim.run();
  w.nodes[2]->control(kLedgerJoin);
  w.sim.run();
  EXPECT_EQ(w.nodes[2]->query(kQueryShardJoined), 1u);
  EXPECT_EQ(w.nodes[2]->query(kQueryShardServing), 1u);
  EXPECT_EQ(entry_count(*w.nodes[2]), 1u);
  EXPECT_EQ(w.nodes[2]->control(kLedgerEntries),
            w.nodes[0]->control(kLedgerEntries));
}

// ---------------------------------------------------------------------------
// Hostile replication frames (DESIGN.md §15, misuse class 2 on the wire).
// A compromised-but-attested peer — or a host replaying captured records —
// controls every byte after the secure-channel decrypt. The kLedgerInject
// control port drops crafted 0xE0..0xEF frames straight into
// ShardReplica::handle_secure; every one must be consumed cleanly, never
// fault the enclave, and never corrupt replicated state.
// ---------------------------------------------------------------------------

/// Injects `frame` into `node` as if it arrived authenticated from `peer`;
/// returns handle_secure's consumed flag.
bool inject(EnclaveNode& node, netsim::NodeId peer, crypto::BytesView frame) {
  crypto::Bytes arg;
  crypto::append_u32(arg, peer);
  crypto::append_lv(arg, frame);
  const crypto::Bytes out = node.control(kLedgerInject, arg);
  return !out.empty() && out[0] == 1;
}

/// A version-vector wire blob whose length prefix claims `claimed` entries
/// but carries only `actual` of them.
crypto::Bytes truncated_vv(uint32_t claimed, uint32_t actual) {
  crypto::Bytes vv;
  crypto::append_u32(vv, claimed);
  for (uint32_t i = 0; i < actual; ++i) {
    crypto::append_u32(vv, i);
    crypto::append_u64(vv, 1);
  }
  return vv;
}

TEST(ShardWireHostility, TruncatedVersionVectorJoinIsDroppedCleanly) {
  LedgerWorld w(3, /*seed=*/9);
  w.configure();
  EnclaveNode& node = *w.nodes[0];
  const netsim::NodeId peer = w.nodes[1]->id();

  // Join request whose vector claims 1000 entries backed by one.
  crypto::Bytes frame;
  frame.push_back(kShardJoinReq);
  crypto::append_u32(frame, 1);
  crypto::append_lv(frame, truncated_vv(1000, 1));
  EXPECT_TRUE(inject(node, peer, frame));
  w.sim.run();

  // Dropped without serving a snapshot and without faulting: the peer gate
  // passed (trusted peer), no rejection was counted, and the replica still
  // admits new state afterwards.
  EXPECT_EQ(node.query(kQueryShardRejectedPeers), 0u);
  EXPECT_TRUE(admit(node, 1, "post-hostility"));
}

TEST(ShardWireHostility, TruncatedVersionVectorSnapshotIsDroppedCleanly) {
  LedgerWorld w(3, /*seed=*/10);
  w.configure();
  EnclaveNode& node = *w.nodes[0];
  const uint64_t vv_before = node.query(kQueryShardVersionTotal);

  crypto::Bytes frame;
  frame.push_back(kShardSnapshot);
  crypto::append_u32(frame, 1);  // donor
  crypto::append_lv(frame, truncated_vv(500, 2));
  crypto::append_lv(frame, crypto::Bytes{});  // app state
  EXPECT_TRUE(inject(node, w.nodes[1]->id(), frame));

  // Nothing merged, nothing installed, nothing dead.
  EXPECT_EQ(node.query(kQueryShardVersionTotal), vv_before);
  EXPECT_EQ(entry_count(node), 0u);
  EXPECT_TRUE(admit(node, 2, "still-serving"));
}

TEST(ShardWireHostility, DuplicateVnodeEntriesTakeComponentwiseMax) {
  // Codec level: a crafted duplicate must not LOWER a component (last-wins
  // would quietly weaken the dominance check behind rollback refusal).
  crypto::Bytes wire;
  crypto::append_u32(wire, 2);
  crypto::append_u32(wire, 7);
  crypto::append_u64(wire, 5);
  crypto::append_u32(wire, 7);
  crypto::append_u64(wire, 1);  // duplicate vnode, lower version
  const VersionVector vv = VersionVector::deserialize(wire);
  EXPECT_EQ(vv.get(7), 5u);
}

TEST(ShardWireHostility, DuplicateVnodeSnapshotMergesAtMax) {
  // End to end: a snapshot frame carrying the duplicate-entry vector must
  // merge at the component-wise max (+5), not at the last entry (+1).
  LedgerWorld w(3, /*seed=*/11);
  w.configure();
  EnclaveNode& node = *w.nodes[0];
  ASSERT_TRUE(admit(node, 1, "alpha"));
  ASSERT_TRUE(admit(node, 2, "beta"));
  w.sim.run();
  const uint64_t vv_before = node.query(kQueryShardVersionTotal);

  crypto::Bytes vv;
  crypto::append_u32(vv, 2);
  crypto::append_u32(vv, 2);  // shard 2...
  crypto::append_u64(vv, 5);  // ...at version 5
  crypto::append_u32(vv, 2);  // duplicate shard 2...
  crypto::append_u64(vv, 1);  // ...claiming version 1

  crypto::Bytes state;  // donor state with one planted entry
  crypto::append_u32(state, 1);
  crypto::append_u64(state, 500);
  crypto::append_lv(state, crypto::to_bytes("planted"));

  crypto::Bytes frame;
  frame.push_back(kShardSnapshot);
  crypto::append_u32(frame, 2);
  crypto::append_lv(frame, vv);
  crypto::append_lv(frame, state);
  EXPECT_TRUE(inject(node, w.nodes[1]->id(), frame));

  EXPECT_EQ(node.query(kQueryShardVersionTotal), vv_before + 5);
  EXPECT_EQ(entry_count(node), 3u);  // alpha, beta, planted
}

TEST(ShardWireHostility, WrongMeasurementPeerAppendIsRefused) {
  // Same cast as the patched-replica test: the app-level policy admits
  // the patched build, so the peer IS attested — but an append frame from
  // it must still die at the replication measurement gate.
  netsim::Simulator sim(/*seed=*/12);
  sgx::Authority authority;
  OpenProject genuine("ledger", "tenet ledger app v1\n", nullptr);
  OpenProject patched("ledger-patched",
                      "tenet ledger app v1 (patched: forges appends)\n",
                      nullptr);
  sgx::AttestationConfig loose = genuine.policy(/*mutual=*/true);
  loose.expect.also_accept(patched.measurement());
  loose.expect.mr_signer.reset();
  const sgx::Authority* auth = &authority;
  const auto factory = [auth, loose] {
    return std::make_unique<LedgerApp>(*auth, loose);
  };
  sgx::EnclaveImage gimage = genuine.build();
  gimage.factory = factory;
  sgx::EnclaveImage pimage = patched.build();
  pimage.factory = factory;
  EnclaveNode g(sim, authority, "genuine", genuine.foundation(), gimage);
  EnclaveNode p(sim, authority, "patched", patched.foundation(), pimage);
  g.start();
  p.start();
  const std::vector<ShardMember> members = {ShardMember{0, g.id()},
                                            ShardMember{1, p.id()}};
  g.control(kLedgerConfigure, shard_cfg(0, members));
  p.control(kLedgerConfigure, shard_cfg(1, members));
  sim.run();
  ASSERT_EQ(g.query(kQueryAttestedPeerCount), 1u);

  const crypto::Bytes forged =
      encode_shard_append(1, 99, 77, 1, 0, crypto::to_bytes("forged-entry"));
  EXPECT_TRUE(inject(g, p.id(), forged));  // consumed (and dropped)
  EXPECT_EQ(g.query(kQueryShardEntriesApplied), 0u);
  EXPECT_GE(g.query(kQueryShardRejectedPeers), 1u);
  EXPECT_EQ(entry_count(g), 0u);
}

TEST(ShardWireHostility, UnknownPeerAppendIsRefused) {
  LedgerWorld w(3, /*seed=*/13);
  w.configure();
  EnclaveNode& node = *w.nodes[0];
  const crypto::Bytes forged =
      encode_shard_append(1, 42, 7, 1, 0, crypto::to_bytes("spoofed"));
  EXPECT_TRUE(inject(node, /*peer=*/0xDEAD, forged));
  EXPECT_EQ(node.query(kQueryShardEntriesApplied), 0u);
  EXPECT_GE(node.query(kQueryShardRejectedPeers), 1u);
}

TEST(ShardWireHostility, HostileCopiesCountIsClampedToGroupSize) {
  // copies=2^32-1 used to buy billions of ring-forwarding hops from one
  // frame; the clamp bounds the walk at the member count. The frame still
  // applies once per replica (version dedup), then the storm dies out.
  LedgerWorld w(3, /*seed=*/14);
  w.configure();
  const crypto::Bytes frame = encode_shard_append(
      1, 99, 77, 0xFFFFFFFFu, 0, crypto::to_bytes("hostile-copies"));
  EXPECT_TRUE(inject(*w.nodes[0], w.nodes[1]->id(), frame));
  w.sim.run();  // must terminate: the clamp bounds total forwards

  uint64_t applied = 0;
  for (const auto& n : w.nodes) applied += n->query(kQueryShardEntriesApplied);
  EXPECT_GE(applied, 1u);
  EXPECT_LE(applied, w.nodes.size());
}

TEST(ShardWireHostility, DirectAppFrameWithSpoofedOriginReachesNoHook) {
  LedgerWorld w(3, /*seed=*/16);
  w.configure();
  EnclaveNode& node = *w.nodes[0];
  const netsim::NodeId shard1 = w.nodes[1]->id();
  const auto delivered = [&node] {
    return crypto::read_u64(node.control(kLedgerAppMessages), 0);
  };

  // Over shard 1's channel, a direct frame whose origin field says shard 2.
  EXPECT_TRUE(inject(node, shard1,
                     encode_shard_app(2, 0, 1, crypto::to_bytes("forged"))));
  EXPECT_EQ(delivered(), 0u);
  // The same frame naming its real origin reaches the hook.
  EXPECT_TRUE(inject(node, shard1,
                     encode_shard_app(1, 0, 1, crypto::to_bytes("genuine"))));
  EXPECT_EQ(delivered(), 1u);
}

TEST(ShardWireHostility, ReservedAndTruncatedFramesAreInertNoise) {
  LedgerWorld w(3, /*seed=*/15);
  w.configure();
  EnclaveNode& node = *w.nodes[0];
  const netsim::NodeId peer = w.nodes[1]->id();
  const uint64_t vv_before = node.query(kQueryShardVersionTotal);

  // Every reserved-but-unassigned tag in the shard range, with junk tails.
  for (uint32_t tag = kShardTagLo; tag <= kShardTagHi; ++tag) {
    if (tag == kShardAppend || tag == kShardJoinReq || tag == kShardSnapshot ||
        tag == kShardApp) {
      continue;
    }
    crypto::Bytes frame{static_cast<uint8_t>(tag), 0xFF, 0x00, 0x41};
    EXPECT_TRUE(inject(node, peer, frame)) << "tag 0x" << std::hex << tag;
  }
  // Assigned tags with the header cut mid-field.
  EXPECT_TRUE(inject(node, peer, crypto::Bytes{kShardAppend, 0x01}));
  EXPECT_TRUE(inject(node, peer, crypto::Bytes{kShardSnapshot}));
  EXPECT_TRUE(inject(node, peer, crypto::Bytes{kShardApp, 0x00, 0x00}));
  // A non-shard payload is not consumed — it belongs to the app layer.
  EXPECT_FALSE(inject(node, peer, crypto::to_bytes("app-payload")));

  EXPECT_EQ(node.query(kQueryShardVersionTotal), vv_before);
  EXPECT_EQ(node.query(kQueryShardEntriesApplied), 0u);
  EXPECT_TRUE(admit(node, 3, "alive-after-noise"));
}

}  // namespace
}  // namespace tenet::core
