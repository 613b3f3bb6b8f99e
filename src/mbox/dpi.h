// Deep packet inspection engine: Aho-Corasick multi-pattern matching.
//
// The workload §3.3 motivates ("TLS traffic in enterprise networks can be
// sent to the SGX-enabled cloud for deep packet inspection"). Streaming
// interface: the automaton state survives across TLS records, so patterns
// spanning record boundaries are still found.
//
// build() compiles the patterns into a dense goto table with the failure
// links folded in (one 256-entry row, 1 KiB, per trie state), so a scan
// makes one table step per byte. While the automaton sits at its root, the
// scanner skips ahead to the next byte that can start a pattern (DESIGN.md
// §5.3).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "crypto/bytes.h"

namespace tenet::mbox {

struct DpiMatch {
  uint32_t pattern_id = 0;
  /// Offset of the byte *after* the match in the scanned stream.
  size_t end_offset = 0;
};

/// Immutable compiled pattern set.
class PatternSet {
 public:
  /// Adds a pattern (non-empty); returns its id. Call before build().
  uint32_t add(std::string pattern);
  /// Compiles the goto table, fail links and outputs. Idempotent.
  void build();
  [[nodiscard]] bool built() const { return built_; }
  [[nodiscard]] const std::string& pattern(uint32_t id) const {
    return patterns_.at(id);
  }
  /// Trie states in the compiled table (the root included); 0 before build().
  [[nodiscard]] size_t state_count() const { return delta_.size() / 256; }

 private:
  friend class DpiScanner;

  std::vector<std::string> patterns_;
  /// delta_[state * 256 + byte]: the next state's row offset (state * 256),
  /// fail links folded in. State 0 is the root; the states that end a
  /// pattern are numbered last, from first_output_state_ on.
  std::vector<uint32_t> delta_;
  uint32_t first_output_state_ = 0;
  /// Pattern ids ending at state first_output_state_ + s:
  /// out_ids_[out_begin_[s] .. out_begin_[s+1]), the state's own patterns in
  /// id order, then its fail chain's, so the longest match comes first.
  std::vector<uint32_t> out_begin_;
  std::vector<uint32_t> out_ids_;
  /// Bytes that leave the root: the patterns' first bytes.
  std::array<bool, 256> starts_{};
  bool built_ = false;
};

/// Streaming scanner over one direction of one session.
class DpiScanner {
 public:
  /// `patterns` must outlive the scanner and be built.
  explicit DpiScanner(const PatternSet& patterns);

  /// Scans the next chunk of the stream; appends matches found.
  std::vector<DpiMatch> scan(crypto::BytesView chunk);

  [[nodiscard]] size_t bytes_scanned() const { return offset_; }
  void reset();

 private:
  const PatternSet& patterns_;
  uint32_t state_ = 0;  // row offset in the table: state * 256
  size_t offset_ = 0;
};

}  // namespace tenet::mbox
