#include "netsim/fault.h"

#include <stdexcept>
#include <string>

namespace tenet::netsim {

namespace {
void check_probability(double p, const char* what) {
  if (p < 0 || p > 1) {
    throw std::invalid_argument(std::string("FaultPlan: bad ") + what);
  }
}
void validate(const LinkFaults& faults) {
  check_probability(faults.loss, "loss");
  check_probability(faults.duplicate, "duplicate");
  check_probability(faults.reorder, "reorder");
  if (faults.jitter < 0 || faults.reorder_delay < 0) {
    throw std::invalid_argument("FaultPlan: negative delay");
  }
}
}  // namespace

void FaultPlan::set_default(const LinkFaults& faults) {
  validate(faults);
  default_ = faults;
}

void FaultPlan::set_link(NodeId a, NodeId b, const LinkFaults& faults) {
  validate(faults);
  per_link_.insert(link_key(a, b)).value = faults;
}

const LinkFaults& FaultPlan::faults(NodeId a, NodeId b) const {
  const LinkFaults* f = per_link_.find(link_key(a, b));
  return f != nullptr ? *f : default_;
}

void FaultPlan::add_link_window(NodeId a, NodeId b, double from, double until) {
  if (until < from) throw std::invalid_argument("FaultPlan: window ends early");
  link_windows_.insert(link_key(a, b)).value.push_back(Window{from, until});
}

void FaultPlan::add_node_window(NodeId node, double from, double until) {
  if (until < from) throw std::invalid_argument("FaultPlan: window ends early");
  node_windows_.insert(node).value.push_back(Window{from, until});
}

void FaultPlan::add_partition(const std::vector<NodeId>& side_a,
                              const std::vector<NodeId>& side_b, double from,
                              double until) {
  if (until < from) throw std::invalid_argument("FaultPlan: window ends early");
  for (const NodeId a : side_a) {
    for (const NodeId b : side_b) {
      if (a == b) {
        throw std::invalid_argument("FaultPlan: node on both partition sides");
      }
      partition_windows_.insert(link_key(a, b))
          .value.push_back(Window{from, until});
    }
  }
  all_partitions_.push_back(Window{from, until});
}

bool FaultPlan::any_partition_active(double t) const {
  return in_any(all_partitions_, t);
}

bool FaultPlan::in_any(const std::vector<Window>& windows, double t) {
  for (const Window& w : windows) {
    if (t >= w.from && t < w.until) return true;
  }
  return false;
}

bool FaultPlan::node_up(NodeId node, double t) const {
  const std::vector<Window>* w = node_windows_.find(node);
  return w == nullptr || !in_any(*w, t);
}

bool FaultPlan::link_window_up(NodeId a, NodeId b, double t) const {
  const std::vector<Window>* w = link_windows_.find(link_key(a, b));
  return w == nullptr || !in_any(*w, t);
}

bool FaultPlan::partition_up(NodeId a, NodeId b, double t) const {
  if (partition_windows_.empty()) return true;
  const std::vector<Window>* w = partition_windows_.find(link_key(a, b));
  return w == nullptr || !in_any(*w, t);
}

}  // namespace tenet::netsim
