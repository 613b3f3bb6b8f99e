#include "mbox/dpi.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/rng.h"
#include "test_seed.h"

namespace tenet::mbox {
namespace {

PatternSet build(std::initializer_list<std::string> patterns) {
  PatternSet set;
  for (const std::string& p : patterns) set.add(p);
  set.build();
  return set;
}

std::vector<uint32_t> ids_of(const std::vector<DpiMatch>& matches) {
  std::vector<uint32_t> out;
  for (const DpiMatch& m : matches) out.push_back(m.pattern_id);
  return out;
}

TEST(Dpi, FindsSinglePattern) {
  const PatternSet set = build({"attack"});
  DpiScanner scanner(set);
  const auto matches = scanner.scan(crypto::to_bytes("an attack happened"));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].pattern_id, 0u);
  EXPECT_EQ(matches[0].end_offset, 9u);  // "an attack" = 9 bytes
}

TEST(Dpi, NoFalsePositives) {
  const PatternSet set = build({"attack"});
  DpiScanner scanner(set);
  EXPECT_TRUE(scanner.scan(crypto::to_bytes("attac kattak atack")).empty());
}

TEST(Dpi, OverlappingPatternsAllReported) {
  const PatternSet set = build({"he", "she", "his", "hers"});
  DpiScanner scanner(set);
  const auto matches = scanner.scan(crypto::to_bytes("ushers"));
  // Classic Aho-Corasick example: "she", "he", "hers".
  std::vector<uint32_t> ids = ids_of(matches);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 3}));
}

TEST(Dpi, CompiledTableHasOneStatePerPrefix) {
  // The root, h, he, her, hers, hi, his, s, sh, she: 10 rows of 1 KiB.
  const PatternSet set = build({"he", "she", "his", "hers"});
  EXPECT_EQ(set.state_count(), 10u);
  EXPECT_EQ(build({"ab", "ab", "a"}).state_count(), 3u);
}

TEST(Dpi, RepeatedMatchesCounted) {
  const PatternSet set = build({"ab"});
  DpiScanner scanner(set);
  EXPECT_EQ(scanner.scan(crypto::to_bytes("ababab")).size(), 3u);
}

TEST(Dpi, PatternSpanningChunksFound) {
  // The streaming property the middlebox relies on: a signature split
  // across TLS records is still detected.
  const PatternSet set = build({"malware-signature"});
  DpiScanner scanner(set);
  EXPECT_TRUE(scanner.scan(crypto::to_bytes("prefix malware-si")).empty());
  const auto matches = scanner.scan(crypto::to_bytes("gnature suffix"));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].end_offset, 7 + 17u);
}

TEST(Dpi, ResetClearsStreamState) {
  const PatternSet set = build({"xyz"});
  DpiScanner scanner(set);
  EXPECT_TRUE(scanner.scan(crypto::to_bytes("xy")).empty());
  scanner.reset();
  EXPECT_TRUE(scanner.scan(crypto::to_bytes("z")).empty());
  EXPECT_EQ(scanner.bytes_scanned(), 1u);
}

TEST(Dpi, BinaryPatternsSupported) {
  PatternSet set;
  set.add(std::string("\x00\xff\x00", 3));
  set.build();
  DpiScanner scanner(set);
  const crypto::Bytes data = {0x01, 0x00, 0xff, 0x00, 0x02};
  EXPECT_EQ(scanner.scan(data).size(), 1u);
}

TEST(Dpi, ManyPatternsLargeInput) {
  PatternSet set;
  for (int i = 0; i < 50; ++i) set.add("pattern" + std::to_string(i));
  set.build();
  DpiScanner scanner(set);
  std::string input;
  for (int i = 0; i < 50; i += 2) input += "xx pattern" + std::to_string(i);
  const auto matches = scanner.scan(crypto::to_bytes(input));
  // 25 planted patterns, plus "pattern1".."pattern4" inside each of the 20
  // two-digit ones ("pattern1" ends inside "pattern10", ...): 25 + 20.
  EXPECT_EQ(matches.size(), 45u);
}

TEST(Dpi, RejectsMisuse) {
  PatternSet set;
  EXPECT_THROW(set.add(""), std::invalid_argument);
  set.add("x");
  EXPECT_THROW(DpiScanner{set}, std::logic_error);  // not built
  set.build();
  EXPECT_THROW(set.add("y"), std::logic_error);  // add after build
  EXPECT_NO_THROW(DpiScanner{set});
}

TEST(Dpi, PrefixPatternsReportedAtEveryOccurrence) {
  const PatternSet set = build({"a", "aa", "aaa"});
  DpiScanner scanner(set);
  const auto matches = scanner.scan(crypto::to_bytes("aaa"));
  // positions: a@1, a@2 + aa@2, a@3 + aa@3 + aaa@3 = 6 matches.
  EXPECT_EQ(matches.size(), 6u);
}

// Reference matcher: at every end offset, every pattern ending there,
// longest first, then by pattern id -- the order scan() reports them in.
std::vector<DpiMatch> naive_matches(const std::vector<std::string>& patterns,
                                    const std::string& stream) {
  std::vector<uint32_t> order(patterns.size());
  for (uint32_t id = 0; id < order.size(); ++id) order[id] = id;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return patterns[a].size() > patterns[b].size();
  });
  std::vector<DpiMatch> out;
  for (size_t end = 1; end <= stream.size(); ++end) {
    for (const uint32_t id : order) {
      const std::string& p = patterns[id];
      if (p.size() <= end && stream.compare(end - p.size(), p.size(), p) == 0) {
        out.push_back(DpiMatch{id, end});
      }
    }
  }
  return out;
}

TEST(Dpi, NaiveMatcherOrderIsLongestFirstThenById) {
  // Pins the reference order the differential test below relies on.
  const std::vector<std::string> patterns = {"b", "ab", "b", "cab"};
  const auto got = naive_matches(patterns, "cab");
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(ids_of(got), (std::vector<uint32_t>{3, 1, 0, 2}));
  const PatternSet set = build({"b", "ab", "b", "cab"});
  DpiScanner scanner(set);
  EXPECT_EQ(ids_of(scanner.scan(crypto::to_bytes("cab"))), ids_of(got));
}

TEST(Dpi, MatchesNaiveMatcherOverRandomSplits) {
  crypto::Drbg rng = crypto::Drbg::from_label(test::seed(31), "dpi.diff");
  const std::vector<std::string> alphabets = {
      "ab", "abcdefghijklmnopqrstuvwxyz", [] {
        std::string all(256, '\0');
        for (size_t b = 0; b < 256; ++b) all[b] = static_cast<char>(b);
        return all;
      }()};
  const auto pick = [&](const std::string& from) {
    return from[rng.uniform(from.size())];
  };
  for (int round = 0; round < 600; ++round) {
    const std::string& alphabet = alphabets[round % alphabets.size()];
    // 1-64 patterns of length 1-12, with duplicates and prefix/suffix chains.
    std::vector<std::string> patterns;
    const size_t count = 1 + rng.uniform(64);
    while (patterns.size() < count) {
      const uint64_t kind = patterns.empty() ? 0 : rng.uniform(4);
      const std::string base =
          patterns.empty() ? "" : patterns[rng.uniform(patterns.size())];
      std::string p;
      if (kind == 1) {
        p = base;  // duplicate
      } else if (kind == 2 && base.size() > 1) {
        const size_t len = 1 + rng.uniform(base.size() - 1);
        p = rng.uniform(2) ? base.substr(0, len)
                           : base.substr(base.size() - len);
      } else if (kind == 3 && base.size() < 12) {
        p = rng.uniform(2) ? base + pick(alphabet) : pick(alphabet) + base;
      } else {
        const size_t len = 1 + rng.uniform(12);
        for (size_t k = 0; k < len; ++k) p += pick(alphabet);
      }
      patterns.push_back(std::move(p));
    }
    PatternSet set;
    for (const std::string& p : patterns) set.add(p);
    set.build();

    std::string firsts, others;
    for (size_t b = 0; b < 256; ++b) {
      const char c = static_cast<char>(b);
      const bool first =
          std::any_of(patterns.begin(), patterns.end(),
                      [&](const std::string& p) { return p[0] == c; });
      (first ? firsts : others) += c;
    }
    // Inputs shorter and longer than one 32-byte skip step.
    const size_t len = rng.uniform(2) ? rng.uniform(32) : 32 + rng.uniform(400);
    std::string stream;
    switch (round / alphabets.size() % 4) {
      case 0:  // random over the alphabet, with planted patterns
        while (stream.size() < len) {
          if (rng.uniform(8) == 0) {
            stream += patterns[rng.uniform(patterns.size())];
          } else {
            stream += pick(alphabet);
          }
        }
        break;
      case 1:  // every byte a first byte: the skip never fires
        while (stream.size() < len) stream += pick(firsts);
        break;
      case 2:  // "xxA...": back at the root, the skip re-enters every 3 bytes
        while (stream.size() < len) {
          const char x = others.empty() ? pick(firsts) : pick(others);
          stream += std::string(2, x) + pick(firsts);
        }
        break;
      default:  // long runs of non-first bytes with rare first bytes
        while (stream.size() < len) {
          const bool first = rng.uniform(64) == 0 || others.empty();
          stream += first ? pick(firsts) : pick(others);
        }
        break;
    }

    // Random chunk splits, empty and 1-byte chunks included.
    DpiScanner scanner(set);
    std::vector<DpiMatch> got;
    for (size_t at = 0; at < stream.size() || rng.uniform(2);) {
      const uint64_t kind = rng.uniform(4);
      const size_t want = kind == 0 ? 0 : kind == 1 ? 1 : rng.uniform(80);
      const size_t take = std::min(want, stream.size() - at);
      const auto part = scanner.scan(crypto::to_bytes(stream.substr(at, take)));
      got.insert(got.end(), part.begin(), part.end());
      at += take;
    }
    const std::vector<DpiMatch> want = naive_matches(patterns, stream);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k].pattern_id, want[k].pattern_id)
          << "round " << round << " match " << k;
      ASSERT_EQ(got[k].end_offset, want[k].end_offset)
          << "round " << round << " match " << k;
    }
    ASSERT_EQ(scanner.bytes_scanned(), stream.size()) << "round " << round;
  }
}

}  // namespace
}  // namespace tenet::mbox
