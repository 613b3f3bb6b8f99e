// SDN inter-domain routing with policy privacy (§3.1, Figure 2).
//
// Recreates the paper's prototype: 30 ASes with hypothetical business
// relationships submit their private BGP-like policies to an enclave-
// hosted inter-domain controller over attested channels; the controller
// computes everyone's routes and returns to each AS only its own. A
// SPIDeR-style predicate is then verified inside the enclave, and the
// native (no SGX) baseline is run for the Table 4 comparison.
//
// Run: ./build/examples/sdn_routing
#include <cstdio>

#include "routing/scenario.h"

using namespace tenet;
using namespace tenet::routing;

int main() {
  std::printf("== SDN inter-domain routing with SGX (paper SS3.1) ==\n\n");

  ScenarioConfig config;
  config.n_ases = 30;  // the paper's topology size
  config.seed = 2015;
  config.use_sgx = true;

  std::printf("building a random topology with %zu ASes...\n", config.n_ases);
  RoutingDeployment deployment(config);
  std::printf("nodes: 1 inter-domain controller + %zu AS-local controllers, "
              "all in enclaves\n\n", deployment.as_count());

  std::printf("phase 1: every AS attests the controller and opens a secure "
              "channel\n");
  deployment.run_attestation_phase();
  std::printf("  attestations performed: %llu (Table 3: one per AS "
              "controller)\n\n",
              static_cast<unsigned long long>(deployment.total_attestations()));

  std::printf("phase 2: policy submission -> in-enclave BGP computation -> "
              "route distribution\n");
  deployment.run_routing_phase();

  // Show one AS's view: it sees its own routes and nothing else.
  const AsNumber sample_as = deployment.policies().begin()->first;
  const RoutingTable table = deployment.table_of(sample_as);
  std::printf("  AS %u received %zu routes; e.g.:\n", sample_as, table.size());
  int shown = 0;
  for (const auto& [prefix, route] : table) {
    if (++shown > 3) break;
    std::string path;
    for (const AsNumber hop : route.as_path) {
      path += ' ';
      path += std::to_string(hop);
    }
    std::printf("    prefix %-3u via AS path:%s (%s route)\n", prefix,
                path.c_str(), to_string(route.learned_from));
  }

  // Validate against the independent distributed-BGP oracle.
  const ComputationResult truth = BgpComputation::compute(deployment.policies());
  ReferenceBgp::check_stable(deployment.policies(), truth.tables);
  std::printf("  routes validated against the distributed BGP oracle\n\n");

  // Policy verification (SPIDeR-style, inside the enclave).
  std::printf("policy verification: \"is the route announced by A most "
              "preferred by B?\"\n");
  AsNumber a = 0, b = 0;
  for (const auto& [asn, t] : truth.tables) {
    for (const auto& [prefix, route] : t) {
      if (route.path_length() == 1) {
        b = asn;
        a = route.next_hop();
        break;
      }
    }
    if (a != 0) break;
  }
  const Predicate promise = Predicate::most_preferred_via(b, a, a);
  deployment.register_predicate(a, 1, promise);
  deployment.register_predicate(b, 1, promise);
  const VerifyStatus verdict = deployment.request_verification(a, 1);
  std::printf("  AS %u and AS %u agreed on the predicate; controller says: "
              "%s\n\n",
              a, b, verdict == VerifyStatus::kHolds ? "PROMISE KEPT"
                                                    : "promise violated");

  // Table 4 comparison: steady-state instruction counts vs native.
  std::printf("Table 4 reproduction (steady state, attestation excluded):\n");
  ScenarioConfig native = config;
  native.use_sgx = false;
  const ScenarioResult sgx_result = run_routing_scenario(config);
  const ScenarioResult nat_result = run_routing_scenario(native);

  const auto pct = [](uint64_t with_sgx, uint64_t without) {
    return without == 0 ? 0.0
                        : 100.0 * (static_cast<double>(with_sgx) - without) /
                              static_cast<double>(without);
  };
  std::printf("  inter-domain controller: %8.2fM normal instr native, "
              "%8.2fM with SGX (+%.0f%%), %llu SGX(U) instr\n",
              nat_result.controller_steady.normal / 1e6,
              sgx_result.controller_steady.normal / 1e6,
              pct(sgx_result.controller_steady.normal,
                  nat_result.controller_steady.normal),
              static_cast<unsigned long long>(
                  sgx_result.controller_steady.sgx_user));
  const auto sgx_as = sgx_result.as_steady_avg();
  const auto nat_as = nat_result.as_steady_avg();
  std::printf("  AS-local (avg of %zu)  : %8.2fM normal instr native, "
              "%8.2fM with SGX (+%.0f%%), %llu SGX(U) instr\n",
              config.n_ases, nat_as.normal / 1e6, sgx_as.normal / 1e6,
              pct(sgx_as.normal, nat_as.normal),
              static_cast<unsigned long long>(sgx_as.sgx_user));
  std::printf("\nthe private policies never left the enclaves in cleartext; "
              "run the test\nsuite's wiretap checks for the proof.\n");
  return 0;
}
