// Modeled-cost ledger over a deployment's enclave nodes, read from outside
// through public counters only.
//
// A node's modeled cost lives in several CostModels: each enclave's
// (including the lazily created quoting enclave) and the platform's host
// glue. EnclaveNode::cost_snapshot() sums them, but only as totals; the
// layer split needs each model's work counters. The ledger remembers every
// model's counters at the last reading, keyed by (platform, enclave id), so
// an enclave restarted between readings shows up as a new model instead of
// a negative delta. Each reading is cross-checked against the nodes'
// cost_snapshot() totals; a mismatch means charges went to a model that
// vanished before it was read, and make the ledger throw.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/node.h"
#include "metrics.h"

namespace perfbench {

class Ledger {
 public:
  explicit Ledger(std::vector<tenet::core::EnclaveNode*> nodes);

  /// Drops whatever was charged since the last reading (probe calls the
  /// benchmark makes to read state or check outputs).
  void mark() { read(false); }
  /// Adds whatever was charged since the last reading to total().
  void take() { read(true); }

  [[nodiscard]] const Counts& total() const { return total_; }

 private:
  using Key = std::pair<const tenet::sgx::Platform*, uint64_t>;
  void read(bool accumulate);

  std::vector<tenet::core::EnclaveNode*> nodes_;
  std::map<Key, Counts> last_;
  tenet::sgx::CostModel::Snapshot last_snapshot_;
  Counts total_;
};

}  // namespace perfbench
