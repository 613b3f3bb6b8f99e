// Ablation A2: DH modulus size sweep (extends Table 1).
//
// The paper fixes DH at 1024 bits. Here the same remote attestation runs
// over the 768/1024/1536/2048-bit MODP groups, showing how the "DH
// dominates attestation" result strengthens with modulus size (modexp is
// ~cubic in the modulus length).
#include "bench_util.h"
#include "sgx/apps.h"
#include "telemetry/trace.h"

using namespace tenet;
using namespace tenet::sgx;

namespace {

struct Cost {
  double total_cycles = 0;
  uint64_t target_normal = 0;
};

Cost attestation_cost(const crypto::DhGroup* group, const char* label) {
  TENET_TRACE_ROOT("ablation", "dh_attestation");
  Authority authority;
  Vendor vendor("dh-vendor");
  AttestationConfig config;
  config.group = group;
  config.expect.expect_enclave(
      apps::target_image(authority, config).measure());

  Platform cp(authority, std::string("dh-chal-") + label);
  Platform tp(authority, std::string("dh-targ-") + label);
  Enclave& challenger =
      cp.launch(vendor, apps::challenger_image(authority, config));
  Enclave& target = tp.launch(vendor, apps::target_image(authority, config));
  Enclave& qe = tp.quoting_enclave();

  const auto c0 = challenger.cost().snapshot();
  const auto t0 = target.cost().snapshot();
  const auto q0 = qe.cost().snapshot();
  const crypto::Bytes msg1 = challenger.ecall(apps::kCreateChallenge, {});
  const crypto::Bytes msg2 = target.ecall(apps::kHandleChallenge, msg1);
  const crypto::Bytes ok = challenger.ecall(apps::kConsumeResponse, msg2);
  if (ok.empty() || ok[0] != 1) {
    std::fprintf(stderr, "attestation failed for %s\n", label);
    std::exit(1);
  }
  Cost cost;
  cost.total_cycles = challenger.cost().cycles_of(challenger.cost().delta(c0)) +
                      target.cost().cycles_of(target.cost().delta(t0)) +
                      qe.cost().cycles_of(qe.cost().delta(q0));
  cost.target_normal = target.cost().delta(t0).normal;
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  tenet::bench::Telemetry telemetry(argc, argv);
  bench::title("Ablation A2: remote attestation cost vs DH modulus size");

  struct GroupRow {
    const crypto::DhGroup* group;
    const char* label;
  };
  const GroupRow rows[] = {
      {&crypto::DhGroup::oakley_group1(), "768"},
      {&crypto::DhGroup::oakley_group2(), "1024 (paper)"},
      {&crypto::DhGroup::modp_group5(), "1536"},
      {&crypto::DhGroup::modp_group14(), "2048"},
  };

  std::printf("\n%-14s %18s %18s %10s\n", "DH bits", "total cycles",
              "target normal", "vs 1024");
  std::printf("----------------------------------------------------------------\n");
  double baseline = 0;
  std::vector<double> cycles;
  for (const GroupRow& row : rows) {
    const Cost c = attestation_cost(row.group, row.label);
    cycles.push_back(c.total_cycles);
    if (std::string(row.label).rfind("1024", 0) == 0) baseline = c.total_cycles;
    std::printf("%-14s %18s %18s\n", row.label,
                bench::human(c.total_cycles).c_str(),
                bench::human(static_cast<double>(c.target_normal)).c_str());
  }
  std::printf("\nrelative to the paper's 1024-bit choice:\n");
  for (size_t i = 0; i < cycles.size(); ++i) {
    std::printf("  %-14s %.2fx\n", rows[i].label, cycles[i] / baseline);
  }

  bench::section("shape checks");
  bool monotone = true;
  for (size_t i = 1; i < cycles.size(); ++i) {
    if (cycles[i] <= cycles[i - 1]) monotone = false;
  }
  std::printf("cost grows monotonically with bits : %s\n",
              monotone ? "yes" : "NO");
  std::printf("superlinear growth (2048 > 4x 768) : %s\n",
              cycles.back() > 4 * cycles.front() ? "yes" : "NO");
  return monotone ? 0 : 1;
}
