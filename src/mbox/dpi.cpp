#include "mbox/dpi.h"

#include <stdexcept>

#include "crypto/work.h"
#include "telemetry/telemetry.h"

namespace tenet::mbox {

uint32_t PatternSet::add(std::string pattern) {
  if (built_) throw std::logic_error("PatternSet: add after build");
  if (pattern.empty()) throw std::invalid_argument("PatternSet: empty pattern");
  patterns_.push_back(std::move(pattern));
  return static_cast<uint32_t>(patterns_.size() - 1);
}

void PatternSet::build() {
  if (built_) return;
  built_ = true;
  // The trie's goto edges, one 256-entry row per state; kNone marks a
  // missing edge until the BFS below folds the fail links in.
  constexpr uint32_t kNone = ~0u;
  delta_.assign(256, kNone);
  std::vector<std::vector<uint32_t>> outputs(1);
  for (uint32_t id = 0; id < patterns_.size(); ++id) {
    size_t state = 0;
    for (const char c : patterns_[id]) {
      const size_t at = state * 256 + static_cast<uint8_t>(c);
      if (delta_[at] == kNone) {
        // Row offsets (state * 256) must fit the table's 32-bit entries.
        if (outputs.size() == (size_t{1} << 24)) {
          throw std::length_error("PatternSet: too many trie states");
        }
        delta_[at] = static_cast<uint32_t>(outputs.size());
        delta_.resize(delta_.size() + 256, kNone);
        outputs.emplace_back();
      }
      state = delta_[at];
    }
    outputs[state].push_back(id);
  }

  // BFS by depth: a state's fail target is shallower, so its row is final
  // (fail links folded in) and its outputs complete when the state is
  // reached. Missing edges copy the fail target's row; outputs accumulate
  // along the fail chain, longest match first.
  std::vector<uint32_t> fail(outputs.size(), 0);
  std::vector<uint32_t> queue;
  queue.reserve(outputs.size());
  for (size_t b = 0; b < 256; ++b) {
    if (delta_[b] == kNone) {
      delta_[b] = 0;
    } else {
      starts_[b] = true;
      queue.push_back(delta_[b]);
    }
  }
  for (size_t q = 0; q < queue.size(); ++q) {
    const uint32_t u = queue[q];
    for (size_t b = 0; b < 256; ++b) {
      uint32_t& edge = delta_[size_t{u} * 256 + b];
      const uint32_t via_fail = delta_[size_t{fail[u]} * 256 + b];
      if (edge == kNone) {
        edge = via_fail;
        continue;
      }
      fail[edge] = via_fail;
      outputs[edge].insert(outputs[edge].end(), outputs[via_fail].begin(),
                           outputs[via_fail].end());
      queue.push_back(edge);
    }
  }

  // Renumber the states so the ones with outputs come last: a scan then
  // tells them apart by one compare, with no flag to mask off the table
  // entry it follows. Entries hold the target's row offset (state * 256).
  std::vector<uint32_t> order;  // old state number, by new number
  for (uint32_t s = 0; s < outputs.size(); ++s) {
    if (outputs[s].empty()) order.push_back(s);
  }
  first_output_state_ = static_cast<uint32_t>(order.size());
  out_begin_.assign(1, 0);
  for (uint32_t s = 0; s < outputs.size(); ++s) {
    if (outputs[s].empty()) continue;
    order.push_back(s);
    out_ids_.insert(out_ids_.end(), outputs[s].begin(), outputs[s].end());
    out_begin_.push_back(static_cast<uint32_t>(out_ids_.size()));
  }
  std::vector<uint32_t> renumbered(outputs.size());
  for (uint32_t k = 0; k < order.size(); ++k) renumbered[order[k]] = k;
  std::vector<uint32_t> rows(delta_.size());
  for (size_t k = 0; k < order.size(); ++k) {
    for (size_t b = 0; b < 256; ++b) {
      rows[k * 256 + b] = renumbered[delta_[size_t{order[k]} * 256 + b]] * 256;
    }
  }
  delta_ = std::move(rows);
}

DpiScanner::DpiScanner(const PatternSet& patterns) : patterns_(patterns) {
  if (!patterns.built()) throw std::logic_error("DpiScanner: patterns not built");
}

std::vector<DpiMatch> DpiScanner::scan(crypto::BytesView chunk) {
  // DPI work: a few instructions per scanned byte, whatever the content.
  crypto::work::charge_alu(4 * chunk.size());
  TENET_COUNT("app.mbox.bytes_scanned", chunk.size());
  std::vector<DpiMatch> matches;
  const PatternSet& set = patterns_;
  const uint32_t* delta = set.delta_.data();
  const uint8_t* p = chunk.data();
  const size_t n = chunk.size();
  const uint32_t first_output_row = set.first_output_state_ * 256;
  uint32_t row = state_;
  size_t i = 0;
  while (i < n) {
    if (row == 0) {
      // At the root only a pattern's first byte leaves it: skip the rest.
      while (i < n && !set.starts_[p[i]]) ++i;
      if (i == n) break;
    }
    row = delta[row + p[i++]];
    if (row >= first_output_row) {
      const uint32_t s = row / 256 - set.first_output_state_;
      for (uint32_t k = set.out_begin_[s]; k < set.out_begin_[s + 1]; ++k) {
        matches.push_back(DpiMatch{set.out_ids_[k], offset_ + i});
      }
    }
  }
  state_ = row;
  offset_ += n;
  TENET_COUNT("app.mbox.dpi_matches", matches.size());
  return matches;
}

void DpiScanner::reset() {
  state_ = 0;
  offset_ = 0;
}

}  // namespace tenet::mbox
