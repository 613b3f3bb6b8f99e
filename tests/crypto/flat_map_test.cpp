// FlatMap (crypto/flat_map.h) against a std::map reference: seeded random
// insert / find / retain sequences through both key shapes its callers use
// (netsim's uint64_t keys and the EPC's (owner, vaddr) pairs), across
// several growths and shrinks, with real hashes and with hashes that pile
// every key onto a few home slots at the end of the table, so probe runs
// are long and wrap around.
#include "crypto/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <utility>

#include "test_seed.h"

namespace tenet::crypto {
namespace {

using PairKey = std::pair<uint64_t, uint64_t>;

/// A value with tail padding: the slot's `used` flag may live there, so a
/// value write that clobbered it would lose or invent entries.
struct Value {
  uint64_t word = 0;
  uint8_t tag = 0;
  bool operator==(const Value&) const = default;
};

/// Five home slots, the last five of any table: every key collides.
struct CollidingU64Hash {
  size_t operator()(uint64_t k) const { return ~size_t{0} - k % 5; }
};
struct CollidingPairHash {
  size_t operator()(const PairKey& k) const {
    return ~size_t{0} - (k.first + k.second) % 5;
  }
};
struct PairHash {
  size_t operator()(const PairKey& k) const {
    return U64Hash{}(k.first * 0x9E3779B97F4A7C15ull ^ k.second);
  }
};

uint64_t make_key(std::mt19937_64& rng, uint64_t, uint64_t space) {
  return rng() % space;
}
PairKey make_key(std::mt19937_64& rng, PairKey, uint64_t space) {
  // A few owners, each with a dense vaddr range, as enclaves map pages.
  return {rng() % 3, rng() % (space / 3 + 1)};
}

template <typename Key, typename Hash>
void check_against_reference(uint64_t seed) {
  std::mt19937_64 rng(test::seed(seed));
  FlatMap<Key, Value, Hash> table;
  std::map<Key, Value> ref;
  size_t peak = 0;
  size_t shrinks = 0;

  const auto check_all = [&] {
    ASSERT_EQ(table.size(), ref.size());
    ASSERT_EQ(table.empty(), ref.empty());
    std::map<Key, Value> seen;
    size_t visits = 0;
    std::as_const(table).for_each([&](const Key& key, const Value& value) {
      seen.emplace(key, value);
      ++visits;
    });
    ASSERT_EQ(visits, ref.size());
    ASSERT_EQ(seen, ref);
    for (const auto& [key, value] : ref) {
      const Value* found = std::as_const(table).find(key);
      ASSERT_NE(found, nullptr);
      ASSERT_EQ(*found, value);
    }
  };

  // The key space grows in phases, so the table grows through several
  // doublings, and retain phases shrink it back.
  for (const uint64_t space : {40u, 400u, 3000u, 200u, 6000u}) {
    for (int step = 0; step < 4000; ++step) {
      const Key key = make_key(rng, Key{}, space);
      const uint64_t op = rng() % 10;
      if (op < 5) {
        auto [value, inserted] = table.insert(key);
        const bool fresh = ref.find(key) == ref.end();
        ASSERT_EQ(inserted, fresh);
        ASSERT_EQ(value, fresh ? Value{} : ref[key]);
        value = Value{rng(), static_cast<uint8_t>(rng())};
        ref[key] = value;
      } else if (op < 9) {
        Value* found = table.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
      } else if (step % 50 == 0) {
        const uint64_t mod = 1 + rng() % 4;
        size_t calls = 0;
        table.retain([&](const Key&, Value& value) {
          ++calls;
          return value.word % mod == 0;
        });
        ASSERT_EQ(calls, ref.size()) << "keep called once per entry";
        const size_t before = ref.size();
        std::erase_if(ref,
                      [&](const auto& e) { return e.second.word % mod != 0; });
        shrinks += ref.size() < before ? 1 : 0;
        check_all();
      }
      peak = std::max(peak, table.size());
    }
    check_all();
    // A dropped key comes back default-constructed.
    table.retain([](const Key&, Value&) { return false; });
    ref.clear();
    check_all();
    const Key key = make_key(rng, Key{}, space);
    EXPECT_TRUE(table.insert(key).inserted);
    EXPECT_EQ(*table.find(key), Value{});
    ref[key] = Value{};
  }
  // From 16 slots, holding more than 384 keys takes six doublings.
  EXPECT_GT(peak, 500u);
  EXPECT_GT(shrinks, 10u);
}

TEST(FlatMap, U64KeysMatchStdMap) {
  check_against_reference<uint64_t, U64Hash>(1);
}

TEST(FlatMap, U64KeysWithCollidingWrappingHomesMatchStdMap) {
  check_against_reference<uint64_t, CollidingU64Hash>(2);
}

TEST(FlatMap, PageKeysMatchStdMap) {
  check_against_reference<PairKey, PairHash>(3);
}

TEST(FlatMap, PageKeysWithCollidingWrappingHomesMatchStdMap) {
  check_against_reference<PairKey, CollidingPairHash>(4);
}

}  // namespace
}  // namespace tenet::crypto
