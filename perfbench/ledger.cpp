#include "ledger.h"

#include <stdexcept>
#include <string>

namespace perfbench {

Ledger::Ledger(std::vector<tenet::core::EnclaveNode*> nodes)
    : nodes_(std::move(nodes)) {
  mark();
}

void Ledger::read(bool accumulate) {
  std::map<Key, Counts> now;
  Counts delta;
  tenet::sgx::CostModel::Snapshot snapshot;
  for (tenet::core::EnclaveNode* node : nodes_) {
    tenet::sgx::Platform& platform = node->platform();
    const auto visit = [&](uint64_t id, tenet::sgx::CostModel& model) {
      const Counts c = read_counts(model);
      const auto it = last_.find(Key{&platform, id});
      delta += it == last_.end() ? c : minus(c, it->second);
      now.emplace(Key{&platform, id}, c);
    };
    visit(0, platform.host_cost());
    for (tenet::sgx::Enclave* enclave : platform.enclaves()) {
      visit(enclave->id(), enclave->cost());
    }
    snapshot.add(node->cost_snapshot());
  }
  // cost_snapshot() also keeps the counts of enclaves that were torn down,
  // so the two views agree exactly unless a vanished model was charged
  // after the previous reading.
  const uint64_t snap_user = snapshot.sgx_user - last_snapshot_.sgx_user;
  const uint64_t snap_normal = snapshot.normal - last_snapshot_.normal;
  if (!last_.empty() &&
      (snap_user != delta.sgx_user || snap_normal != delta.normal)) {
    throw std::runtime_error(
        "ledger: per-model counters disagree with cost_snapshot() (user " +
        std::to_string(delta.sgx_user) + " vs " + std::to_string(snap_user) +
        ", normal " + std::to_string(delta.normal) + " vs " +
        std::to_string(snap_normal) + ")");
  }
  if (accumulate) total_ += delta;
  last_ = std::move(now);
  last_snapshot_ = snapshot;
}

}  // namespace perfbench
