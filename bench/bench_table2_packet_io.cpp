// Table 2 reproduction: "Number of instructions of a single packet
// transmission" — in-enclave I/O cost with and without crypto, 1 packet
// vs a 100-packet run.
//
// Paper (OpenSGX, MTU packets, AES-128 "crypto" columns):
//               SGX (1 packet)        SGX (100 packets)
//               w/o crypto  crypto    w/o crypto  crypto
//   SGX(U)      6           6         204         204
//   Normal      13K         97K       136K        972K
//
// PR-4 axis: --switchless adds a comparison of the same 100-packet run
// with the enclave's transitions served through the switchless rings
// (DESIGN.md §10) — same payload bytes on the wire, a fraction of the
// EENTER/EEXIT/ERESUME transitions. --json prints the deterministic
// numbers as one flat JSON object. Either way the bench checks the Table 2
// shape and the pinned switchless counts, and exits 1 naming any value
// that differs.
#include <cstring>

#include "bench_util.h"
#include "sgx/apps.h"
#include "telemetry/trace.h"

using namespace tenet;
using namespace tenet::sgx;

namespace {

struct SendRun {
  CostModel::Snapshot app;      // enclave + host, whole-application
  uint64_t handler_bytes = 0;   // payload bytes the untrusted handler saw
  uint64_t handler_calls = 0;   // times the untrusted handler ran
};

SendRun run_send(uint32_t packets, bool crypto_on, bool switchless) {
  TENET_TRACE_ROOT("packet_io", "send_run");
  Authority authority;
  Vendor vendor("io-vendor");
  Platform platform(authority, "io-host-" + std::to_string(packets) +
                                   (crypto_on ? "-c" : "-p") +
                                   (switchless ? "-sw" : ""));
  Enclave& enclave = platform.launch(vendor, apps::packet_sender_image());
  if (switchless) enclave.enable_switchless();
  SendRun run;
  enclave.set_ocall_handler(
      [&platform, &run](uint32_t code, crypto::BytesView payload)
          -> crypto::Bytes {
        if (code == apps::kOcallNetOpen) {
          // Untrusted socket setup: syscall-heavy one-time cost.
          platform.host_cost().charge_normal(8'000);
        }
        run.handler_bytes += payload.size();
        ++run.handler_calls;
        return {};
      });

  apps::SendRunRequest req;
  req.packet_count = packets;
  req.packet_size = 1500;  // MTU, as in the paper
  req.encrypt = crypto_on;

  const auto before = enclave.cost().snapshot();
  const auto host_before = platform.host_cost().snapshot();
  const crypto::Bytes out = enclave.ecall(apps::kSendRun, req.serialize());
  if (out.empty() || crypto::read_u32(out, 0) != packets) {
    std::fprintf(stderr, "send run failed\n");
    std::exit(1);
  }
  // Whole-application accounting (enclave + untrusted runtime), matching
  // how OpenSGX counted the paper's numbers.
  run.app = enclave.cost().delta(before);
  const auto host = platform.host_cost().delta(host_before);
  run.app.normal += host.normal;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  tenet::bench::Telemetry telemetry(argc, argv);
  using bench::human;
  bool want_switchless = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--switchless") == 0) want_switchless = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  const SendRun p1 = run_send(1, false, false);
  const SendRun c1 = run_send(1, true, false);
  const SendRun p100 = run_send(100, false, false);
  const SendRun c100 = run_send(100, true, false);

  // Shape checks (Table 2 invariants; printed below, pinned in gate).
  const bool linear_sgx =
      p1.app.sgx_user == 6 && p100.app.sgx_user == 204;  // 2N + 4 exactly
  const bool crypto_same_sgx = c1.app.sgx_user == p1.app.sgx_user + 1 &&
                               c100.app.sgx_user == p100.app.sgx_user + 1;
  const bool crypto_scales =
      c100.app.normal - p100.app.normal > 50 * (c1.app.normal - p1.app.normal);

  // Switchless axis: identical 100-packet run, transitions served through
  // the rings. Equal payload bytes is part of the acceptance criteria.
  const SendRun sw100 = run_send(100, false, true);
  const SendRun swc100 = run_send(100, true, true);
  const bool equal_bytes = sw100.handler_bytes == p100.handler_bytes &&
                           sw100.handler_calls == p100.handler_calls &&
                           swc100.handler_bytes == c100.handler_bytes;
  const double reduction =
      sw100.app.transitions == 0
          ? 0.0
          : static_cast<double>(p100.app.transitions) /
                static_cast<double>(sw100.app.transitions);

  // Every gated value is instruction-model-deterministic, identical on
  // every machine and build type.
  const auto gate = [&] {
    bench::Gate g("bench_table2_packet_io");
    // Table 2's SGX(U) = 2N + 4; crypto adds one EGETKEY.
    g.pin("sgx_user_1pkt", p1.app.sgx_user, 6);
    g.pin("sgx_user_1pkt_crypto", c1.app.sgx_user, 7);
    g.pin("sgx_user_100pkt", p100.app.sgx_user, 204);
    g.pin("sgx_user_100pkt_crypto", c100.app.sgx_user, 205);
    g.pin("payload_bytes_equal", equal_bytes, 1);
    g.pin("sync_100pkt_transitions", p100.app.transitions, 204);
    // First-ecall wakeup fallback (2), net-open wakeup fallback (2), and
    // one ring-full fallback at 64 queued sends (2).
    g.pin("switchless_100pkt_transitions", sw100.app.transitions, 6);
    g.pin("switchless_100pkt_hits", sw100.app.switchless_hits, 99);
    g.pin("switchless_100pkt_fallbacks", sw100.app.switchless_fallbacks, 3);
    g.pin("switchless_100pkt_sgx_user", sw100.app.sgx_user, 6);
    g.pin("transition_reduction_x", reduction, 34.0, 2);
    return g.exit_code();
  };

  if (json) {
    // Flat JSON only. Every number below is simulator-deterministic.
    std::printf(
        "{\n"
        "  \"sync_100pkt_transitions\": %llu,\n"
        "  \"switchless_100pkt_transitions\": %llu,\n"
        "  \"switchless_100pkt_hits\": %llu,\n"
        "  \"switchless_100pkt_fallbacks\": %llu,\n"
        "  \"transition_reduction_x\": %.2f,\n"
        "  \"payload_bytes_equal\": %d,\n"
        "  \"sync_100pkt_sgx_user\": %llu,\n"
        "  \"switchless_100pkt_sgx_user\": %llu,\n"
        "  \"sync_100pkt_normal\": %llu,\n"
        "  \"switchless_100pkt_normal\": %llu\n"
        "}\n",
        (unsigned long long)p100.app.transitions,
        (unsigned long long)sw100.app.transitions,
        (unsigned long long)sw100.app.switchless_hits,
        (unsigned long long)sw100.app.switchless_fallbacks, reduction,
        equal_bytes ? 1 : 0, (unsigned long long)p100.app.sgx_user,
        (unsigned long long)sw100.app.sgx_user,
        (unsigned long long)p100.app.normal,
        (unsigned long long)sw100.app.normal);
    return gate();
  }

  bench::title(
      "Table 2: Number of instructions of a single packet transmission\n"
      "(MTU-sized packets, one ocall exit/resume per packet; \"crypto\" = "
      "AES-128)");

  std::printf("\n%-14s | %12s %12s | %12s %12s\n", "", "SGX (1 packet)", "",
              "SGX (100 packets)", "");
  std::printf("%-14s | %12s %12s | %12s %12s\n", "", "w/o crypto", "crypto",
              "w/o crypto", "crypto");
  std::printf("---------------+---------------------------+----------------"
              "-----------\n");
  std::printf("%-14s | %12llu %12llu | %12llu %12llu\n", "SGX(U) inst.",
              (unsigned long long)p1.app.sgx_user,
              (unsigned long long)c1.app.sgx_user,
              (unsigned long long)p100.app.sgx_user,
              (unsigned long long)c100.app.sgx_user);
  std::printf("%-14s | %12s %12s | %12s %12s\n", "Normal inst.",
              human(p1.app.normal).c_str(), human(c1.app.normal).c_str(),
              human(p100.app.normal).c_str(), human(c100.app.normal).c_str());
  std::printf("%-14s | %12s %12s | %12s %12s   (paper)\n", "SGX(U) paper",
              "6", "6", "204", "204");
  std::printf("%-14s | %12s %12s | %12s %12s   (paper)\n", "Normal paper",
              "13K", "97K", "136K", "972K");

  bench::section("shape checks");
  std::printf("SGX(U) = 2N + 4 exactly         : %s\n",
              linear_sgx ? "yes (6 and 204, as in the paper)" : "NO");
  std::printf("crypto adds ~no SGX instructions: %s (+1 EGETKEY)\n",
              crypto_same_sgx ? "yes" : "NO");
  const double amortized = static_cast<double>(p100.app.normal) / 100.0 /
                           static_cast<double>(p1.app.normal);
  std::printf("batching amortizes normal instr : per-packet cost at N=100 is "
              "%.0f%% of N=1\n", 100 * amortized);
  std::printf("crypto cost scales with packets : %s\n",
              crypto_scales ? "yes" : "NO");

  if (want_switchless) {
    bench::section("switchless axis (100 packets, w/o crypto)");
    std::printf("%-32s | %12s %12s\n", "", "sync", "switchless");
    std::printf("%-32s | %12llu %12llu\n", "enclave transitions",
                (unsigned long long)p100.app.transitions,
                (unsigned long long)sw100.app.transitions);
    std::printf("%-32s | %12llu %12llu\n", "SGX(U) inst.",
                (unsigned long long)p100.app.sgx_user,
                (unsigned long long)sw100.app.sgx_user);
    std::printf("%-32s | %12s %12s\n", "Normal inst.",
                human(p100.app.normal).c_str(),
                human(sw100.app.normal).c_str());
    std::printf("%-32s | %12s %12llu\n", "ring hits", "-",
                (unsigned long long)sw100.app.switchless_hits);
    std::printf("%-32s | %12s %12llu\n", "sync fallbacks", "-",
                (unsigned long long)sw100.app.switchless_fallbacks);
    std::printf("transition reduction            : %.1fx (acceptance: >= 5x "
                "at equal payload bytes)\n", reduction);
    std::printf("equal payload bytes on the wire : %s (%llu bytes, %llu "
                "handler runs)\n",
                equal_bytes ? "yes" : "NO",
                (unsigned long long)sw100.handler_bytes,
                (unsigned long long)sw100.handler_calls);
  }
  return gate();
}
