// Goldens for the end-to-end benchmark's four workloads. Each case runs one
// workload in-process exactly as perfbench/main.cpp runs a deployment
// (set up, verify, the fixed window of ops untraced, close, finish) and
// checks every modeled and virtual metric and the output checksum against
// tests/apps/workload_goldens.txt. Wall metrics are left out: they depend
// on the machine. The workloads' sources are compiled in unchanged, so a
// pin here is the number `perfbench/run.py` prints for the same seed.
//
// A deliberate modeled change re-pins its lines in the same change; on a
// mismatch the test prints the whole block as it now reads, in the file's
// format.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

struct Case {
  std::string workload;
  uint64_t seed;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.workload << " " << c.seed;
}

/// `name value` lines of one run: every non-wall metric, then the checksum.
std::map<std::string, std::string> run_workload(const Case& c) {
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : workloads()) {
    if (w.name == c.workload) info = &w;
  }
  if (info == nullptr) throw std::invalid_argument("no such workload");
  const std::unique_ptr<Workload> w = info->make(c.seed);
  w->verify_setup();
  w->begin();
  for (size_t i = 0; i < w->window_ops(); ++i) (void)w->op(i, nullptr);
  w->close_window();
  MetricSet m;
  w->finish(m, Trace{}, /*traced=*/false);
  EXPECT_EQ(w->failed(), 0u);

  std::map<std::string, std::string> out;
  char buf[64];
  for (const Metric& x : m.all()) {
    if (x.clock == Clock::kWall) continue;
    std::snprintf(buf, sizeof(buf), "%.17g", x.value);
    out[x.name] = buf;
  }
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(w->checksum()));
  out["checksum"] = buf;
  return out;
}

/// The pinned lines for `c`: `workload seed name value`.
std::map<std::string, std::string> pinned(const Case& c) {
  std::ifstream f(TENET_WORKLOAD_GOLDENS);
  EXPECT_TRUE(f.good()) << "cannot read " << TENET_WORKLOAD_GOLDENS;
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string workload, name, value;
    uint64_t seed = 0;
    in >> workload >> seed >> name >> value;
    if (workload == c.workload && seed == c.seed) out[name] = value;
  }
  return out;
}

class WorkloadGolden : public ::testing::TestWithParam<Case> {};

TEST_P(WorkloadGolden, ModeledAndVirtualMetricsMatchPins) {
  const Case& c = GetParam();
  const std::map<std::string, std::string> got = run_workload(c);
  const std::map<std::string, std::string> want = pinned(c);
  EXPECT_FALSE(want.empty()) << "no pins for " << c.workload << " " << c.seed;
  for (const auto& [name, value] : want) {
    const auto it = got.find(name);
    EXPECT_TRUE(it != got.end() && it->second == value)
        << name << ": pinned " << value << ", got "
        << (it != got.end() ? it->second : "(missing)");
  }
  for (const auto& [name, value] : got) {
    EXPECT_TRUE(want.contains(name)) << name << " = " << value << " is unpinned";
  }
  if (HasFailure()) {
    std::string block;
    for (const auto& [name, value] : got) {
      block += c.workload + " " + std::to_string(c.seed) + " " + name + " " +
               value + "\n";
    }
    ADD_FAILURE() << "as it now reads:\n" << block;
  }
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = info.param.workload + "_" + std::to_string(info.param.seed);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, WorkloadGolden,
    ::testing::Values(Case{"mbox-relay", 2015}, Case{"mbox-relay", 7},
                      Case{"tor-circuits", 2015}, Case{"tor-circuits", 7},
                      Case{"control-failover", 2015},
                      Case{"control-failover", 7},
                      Case{"session-churn", 2015}, Case{"session-churn", 7}),
    case_name);

}  // namespace
}  // namespace perfbench
