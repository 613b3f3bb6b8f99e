#pragma once
// A decoded or test-built routing::Partial written back in its wire
// layout, through the one kPartial encoder (routing::append_partial):
// each AS of the partial is one PartialAs carrying all of its rows.
#include "routing/messages.h"

namespace tenet::test {

inline crypto::Bytes encode_partial(const routing::Partial& p) {
  routing::ComputationResult rows;
  std::vector<routing::PartialAs> ases;
  for (const auto& [asn, r] : p.rows) {
    rows.tables[asn] = r.chosen;
    rows.candidates[asn] = r.candidates;
    ases.push_back({asn});
  }
  crypto::Bytes out;
  routing::append_partial(out, p.down, p.base ? &*p.base : nullptr, ases,
                          rows);
  return out;
}

}  // namespace tenet::test
