#include "core/replication.h"

#include <algorithm>
#include <stdexcept>

namespace tenet::core {

uint64_t shard_mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

ShardMap::ShardMap(std::vector<ShardMember> members)
    : members_(std::move(members)) {
  std::sort(members_.begin(), members_.end(),
            [](const ShardMember& a, const ShardMember& b) {
              return a.shard < b.shard;
            });
  ring_.reserve(members_.size() * kVirtualNodes);
  for (const ShardMember& m : members_) {
    for (uint32_t v = 0; v < kVirtualNodes; ++v) {
      const uint64_t point =
          shard_mix64((static_cast<uint64_t>(m.shard) << 32) | v);
      ring_.emplace_back(point, m.shard);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

uint32_t ShardMap::owner(uint64_t key) const {
  if (ring_.empty()) throw std::logic_error("ShardMap::owner: empty map");
  // Domain-separate key hashes from ring-point hashes: points are
  // mix64((shard << 32) | v), so an unsalted small key k would hash to
  // exactly shard 0's virtual node v = k and pin every small key (ASNs,
  // node ids, session ids are all < 2^32) onto shard 0.
  const uint64_t h = shard_mix64(key ^ 0x74656e65742d6b65ull);  // "tenet-ke"
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(h, uint32_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

netsim::NodeId ShardMap::node(uint32_t shard) const {
  for (const ShardMember& m : members_) {
    if (m.shard == shard) return m.node;
  }
  return netsim::kInvalidNode;
}

uint32_t ShardMap::shard_of(netsim::NodeId node) const {
  for (const ShardMember& m : members_) {
    if (m.node == node) return m.shard;
  }
  return kInvalidShard;
}

uint32_t ShardMap::successor(uint32_t shard) const {
  if (members_.empty()) return kInvalidShard;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].shard == shard) {
      return members_[(i + 1) % members_.size()].shard;
    }
  }
  return kInvalidShard;
}

uint64_t VersionVector::get(uint32_t shard) const {
  const auto it = high_.find(shard);
  return it == high_.end() ? 0 : it->second;
}

uint64_t VersionVector::bump(uint32_t shard) { return ++high_[shard]; }

bool VersionVector::observe(uint32_t shard, uint64_t version) {
  uint64_t& high = high_[shard];
  if (version <= high) return false;
  high = version;
  return true;
}

bool VersionVector::dominates(const VersionVector& other) const {
  for (const auto& [shard, version] : other.high_) {
    if (get(shard) < version) return false;
  }
  return true;
}

void VersionVector::merge(const VersionVector& other) {
  for (const auto& [shard, version] : other.high_) {
    uint64_t& high = high_[shard];
    if (version > high) high = version;
  }
}

uint64_t VersionVector::total() const {
  uint64_t sum = 0;
  for (const auto& [shard, version] : high_) sum += version;
  return sum;
}

crypto::Bytes VersionVector::serialize() const {
  crypto::Bytes out;
  crypto::append_u32(out, static_cast<uint32_t>(high_.size()));
  for (const auto& [shard, version] : high_) {
    crypto::append_u32(out, shard);
    crypto::append_u64(out, version);
  }
  return out;
}

VersionVector VersionVector::deserialize(crypto::BytesView data) {
  crypto::Reader r(data);
  VersionVector vv;
  const uint32_t n = r.u32();
  // 12 bytes per entry: reject a length prefix the payload cannot back
  // before touching the map (a hostile frame could otherwise claim 2^32
  // entries and drive a huge loop over a throwing reader).
  if (size_t{n} * 12 > r.remaining()) {
    throw std::out_of_range("VersionVector: truncated entry list");
  }
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t shard = r.u32();
    const uint64_t version = r.u64();
    // serialize() writes a std::map: each shard once, ascending. A repeated
    // entry is no honest encoding, and one that set a component to either
    // copy could LOWER it, weakening the dominance check that backs
    // rollback protection.
    if (!vv.high_.empty() && shard <= vv.high_.rbegin()->first) {
      throw std::invalid_argument("VersionVector: shards not ascending");
    }
    vv.high_.emplace_hint(vv.high_.end(), shard, version);
  }
  if (!r.done()) throw std::invalid_argument("VersionVector: trailing bytes");
  return vv;
}

crypto::Bytes ShardConfig::serialize() const {
  crypto::Bytes out;
  crypto::append_u32(out, self);
  crypto::append_u32(out, replication);
  crypto::append_u32(out, static_cast<uint32_t>(members.size()));
  for (const ShardMember& m : members) {
    crypto::append_u32(out, m.shard);
    crypto::append_u32(out, m.node);
  }
  return out;
}

ShardConfig ShardConfig::deserialize(crypto::BytesView data) {
  crypto::Reader r(data);
  ShardConfig cfg;
  cfg.self = r.u32();
  cfg.replication = r.u32();
  const uint32_t n = r.u32();
  // 8 bytes per member: validate the count against the bytes actually
  // present before reserving (an unvalidated n=2^32-1 is a ~34 GB
  // allocation request from one hostile frame).
  if (size_t{n} * 8 > r.remaining()) {
    throw std::out_of_range("ShardConfig: truncated member list");
  }
  cfg.members.reserve(n);
  bool self_member = false;
  for (uint32_t i = 0; i < n; ++i) {
    ShardMember m;
    m.shard = r.u32();
    m.node = r.u32();
    // Ascending shard order: the compute deal indexes members(), so every
    // replica must list them alike. One node hosts one shard.
    if (!cfg.members.empty() && m.shard <= cfg.members.back().shard) {
      throw std::invalid_argument("ShardConfig: shards not ascending");
    }
    for (const ShardMember& other : cfg.members) {
      if (other.node == m.node) {
        throw std::invalid_argument("ShardConfig: node repeated");
      }
    }
    self_member = self_member || m.shard == cfg.self;
    cfg.members.push_back(m);
  }
  if (!r.done()) throw std::invalid_argument("ShardConfig: trailing bytes");
  if (!self_member) throw std::invalid_argument("ShardConfig: self not a member");
  return cfg;
}

crypto::Bytes encode_shard_append(uint32_t origin, uint64_t version,
                                  uint64_t key, uint32_t copies_left,
                                  uint64_t send_ts_us,
                                  crypto::BytesView entry) {
  crypto::Bytes out;
  out.push_back(kShardAppend);
  crypto::append_u32(out, origin);
  crypto::append_u64(out, version);
  crypto::append_u64(out, key);
  crypto::append_u32(out, copies_left);
  crypto::append_u64(out, send_ts_us);
  crypto::append_lv(out, entry);
  return out;
}

crypto::Bytes encode_shard_join(uint32_t joiner, const VersionVector& vv) {
  crypto::Bytes out;
  out.push_back(kShardJoinReq);
  crypto::append_u32(out, joiner);
  crypto::append_lv(out, vv.serialize());
  return out;
}

crypto::Bytes encode_shard_snapshot(uint32_t donor, const VersionVector& vv,
                                    crypto::BytesView state) {
  crypto::Bytes out;
  out.push_back(kShardSnapshot);
  crypto::append_u32(out, donor);
  crypto::append_lv(out, vv.serialize());
  crypto::append_lv(out, state);
  return out;
}

crypto::Bytes encode_shard_app(uint32_t from, uint32_t target, uint8_t ttl,
                               crypto::BytesView inner) {
  crypto::Bytes out;
  out.push_back(kShardApp);
  crypto::append_u32(out, from);
  crypto::append_u32(out, target);
  out.push_back(ttl);
  crypto::append_lv(out, inner);
  return out;
}

}  // namespace tenet::core
