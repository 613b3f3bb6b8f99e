#pragma once
// Seeded mutation check for a wire decoder: a decoder is canonical and
// fails closed (ROADMAP item 8).
//
// check_mutations() mutates one valid encoding many times (truncate,
// extend, flip bytes, or write an out-of-range value at one of the
// caller's flag offsets) and requires of every mutant:
//   * if the decoder accepts it, re-encoding gives back the mutant's bytes;
//   * if the decoder rejects it, it throws a std::logic_error (the
//     Reader's std::out_of_range for a short input, the decoder's
//     std::invalid_argument otherwise) and nothing else.
#include <gtest/gtest.h>

#include <array>
#include <exception>
#include <stdexcept>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/rng.h"
#include "test_seed.h"

namespace tenet::test {

struct MutationTally {
  size_t accepted = 0;
  size_t rejected = 0;
  std::array<size_t, 4> by_kind{};  // truncate, extend, flip, flag
};

/// `roundtrip(wire)` decodes `wire` and returns the re-encoding. Each byte
/// at an offset in `flag_offsets` is legal only as 0 or 1.
template <typename RoundTrip>
MutationTally check_mutations(const crypto::Bytes& valid, RoundTrip roundtrip,
                              uint64_t seed,
                              const std::vector<size_t>& flag_offsets = {},
                              int iterations = 2000) {
  crypto::Drbg rng =
      crypto::Drbg::from_label(test::seed(seed), "test.decoder_mutation");
  MutationTally tally;
  for (int i = 0; i < iterations; ++i) {
    crypto::Bytes wire = valid;
    const size_t kind = rng.uniform(flag_offsets.empty() ? 3 : 4);
    switch (kind) {
      case 0:
        wire.resize(rng.uniform(wire.size()));
        break;
      case 1: {
        const crypto::Bytes tail = rng.bytes(1 + rng.uniform(8));
        wire.insert(wire.end(), tail.begin(), tail.end());
        break;
      }
      case 2:
        for (uint64_t n = 1 + rng.uniform(3); n > 0; --n) {
          wire[rng.uniform(wire.size())] ^=
              static_cast<uint8_t>(1 + rng.uniform(255));
        }
        break;
      default:
        wire[flag_offsets[rng.uniform(flag_offsets.size())]] =
            static_cast<uint8_t>(2 + rng.uniform(254));
        break;
    }
    ++tally.by_kind[kind];
    try {
      const crypto::Bytes again = roundtrip(crypto::BytesView(wire));
      if (again != wire) {
        ADD_FAILURE() << "mutant " << i << " (kind " << kind
                      << ") decoded but re-encoded to different bytes";
        return tally;
      }
      ++tally.accepted;
    } catch (const std::logic_error&) {
      ++tally.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " (kind " << kind
                    << ") threw something other than a std::logic_error: "
                    << e.what();
      return tally;
    }
  }
  return tally;
}

}  // namespace tenet::test
