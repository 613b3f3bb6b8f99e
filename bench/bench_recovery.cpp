// Recovery benchmark (PR 3): what does fault tolerance cost, and how fast
// does a deployment heal? Prints one flat JSON object with
//  - steady-state overhead of the recovery machinery at fault-rate 0
//    (robust vs non-robust wall-clock per message; informational: the
//    true overhead is below this comparison's run-to-run noise),
//  - goodput vs injected loss rate (deterministic: simulator-counted),
//  - recovery latency after a forced enclave crash, in simulated seconds
//    (deterministic) and wall nanoseconds.
// The deterministic metrics are pinned at the end of main(); the bench
// exits 1 naming any that differs. The wall-clock ones are informational.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "core/node.h"
#include "core/open_project.h"

using namespace tenet;
using Clock = std::chrono::steady_clock;

namespace {

class CountApp final : public core::SecureApp {
 public:
  using SecureApp::SecureApp;

  void on_secure_message(core::Ctx&, netsim::NodeId,
                         crypto::BytesView) override {
    ++received_;
  }
  crypto::Bytes on_control(core::Ctx& ctx, uint32_t subfn,
                           crypto::BytesView arg) override {
    if (subfn == 1) {
      crypto::Reader r(arg);
      const netsim::NodeId peer = r.u32();
      ctx.send_secure(peer, r.lv());
      return {};
    }
    crypto::Bytes out;
    crypto::append_u64(out, received_);
    return out;
  }
  crypto::Bytes on_checkpoint(core::Ctx&) override {
    crypto::Bytes state;
    crypto::append_u64(state, received_);
    return state;
  }
  void on_restore(core::Ctx&, crypto::BytesView state) override {
    if (state.size() >= 8) received_ = crypto::read_u64(state, 0);
  }

 private:
  uint64_t received_ = 0;
};

struct World {
  World(bool robust, double loss, uint64_t seed)
      : sim(seed), project("bench-recovery", "tenet recovery bench app\n",
                           nullptr) {
    const sgx::AttestationConfig cfg = project.policy();
    const sgx::Authority* auth = &authority;
    image = project.build();
    image.factory = [auth, cfg, robust] {
      auto app = std::make_unique<CountApp>(*auth, cfg);
      if (robust) app->enable_recovery(netsim::RetryPolicy{});
      return app;
    };
    a = std::make_unique<core::EnclaveNode>(sim, authority, "bench-a",
                                            project.foundation(), image);
    b = std::make_unique<core::EnclaveNode>(sim, authority, "bench-b",
                                            project.foundation(), image);
    a->start();
    b->start();
    if (loss > 0) {
      netsim::LinkFaults f;
      f.loss = loss;
      sim.fault_plan().set_default(f);
    }
    a->connect_to(b->id());
    sim.run();
  }

  void send(std::string_view text) {
    crypto::Bytes arg;
    crypto::append_u32(arg, b->id());
    crypto::append_lv(arg, crypto::to_bytes(text));
    try {
      (void)a->control(1, arg);
    } catch (const std::logic_error&) {
      // Channel mid-rehandshake: the message is lost, like any other drop.
    }
    sim.run();
  }
  uint64_t received() { return crypto::read_u64(b->control(2), 0); }

  netsim::Simulator sim;
  sgx::Authority authority;
  core::OpenProject project;
  sgx::EnclaveImage image;
  std::unique_ptr<core::EnclaveNode> a, b;
};

/// Wall-clock ns per message round at the given config (loss 0 only —
/// with loss, wall time measures the drop schedule, not the code).
double message_ns(bool robust, int iters) {
  World w(robust, /*loss=*/0.0, /*seed=*/101);
  w.send("warmup");
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) w.send("payload-goodput-probe");
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
      iters;
  return ns;
}

/// Deterministic goodput: fraction of 200 scripted sends delivered under
/// `loss`, recovery enabled. Attestation itself rides the retry machinery.
double goodput(double loss) {
  World w(/*robust=*/true, loss, /*seed=*/2015);
  const int kSends = 200;
  for (int i = 0; i < kSends; ++i) w.send("g");
  return static_cast<double>(w.received()) / kSends;
}

struct RecoveryCost {
  double sim_seconds;  // deterministic
  double wall_ns;      // informational
  int sends_to_heal;   // deterministic
};

/// Forces a crash of the receiver, then measures how long until a message
/// gets through again (NACK -> re-handshake -> delivery).
RecoveryCost recovery_drill() {
  World w(/*robust=*/true, /*loss=*/0.0, /*seed=*/7);
  w.send("before crash");
  (void)w.b->checkpoint();
  w.b->inject_fault();
  const auto t0 = Clock::now();
  (void)w.b->recover();
  const uint64_t base = w.received();
  const double sim_t0 = w.sim.now();
  RecoveryCost cost{0, 0, 0};
  while (w.received() <= base && cost.sends_to_heal < 100) {
    w.send("probe");
    ++cost.sends_to_heal;
  }
  cost.sim_seconds = w.sim.now() - sim_t0;
  cost.wall_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Telemetry telemetry(argc, argv);

  const double baseline_ns = message_ns(/*robust=*/false, 300);
  const double robust_ns = message_ns(/*robust=*/true, 300);
  const double overhead_pct =
      100.0 * (robust_ns - baseline_ns) / baseline_ns;

  const double g0 = goodput(0.0);
  const double g5 = goodput(0.05);
  const double g10 = goodput(0.10);
  const RecoveryCost drill = recovery_drill();

  std::printf(
      "{\n"
      "  \"baseline_msg_ns\": %.0f,\n"
      "  \"robust_msg_ns\": %.0f,\n"
      "  \"recovery_overhead_pct\": %.3f,\n"
      "  \"goodput_fault_00\": %.4f,\n"
      "  \"goodput_fault_05\": %.4f,\n"
      "  \"goodput_fault_10\": %.4f,\n"
      "  \"recovery_latency_sim_ms\": %.4f,\n"
      "  \"recovery_sends_to_heal\": %d,\n"
      "  \"recovery_wall_ns\": %.0f\n"
      "}\n",
      baseline_ns, robust_ns, overhead_pct, g0, g5, g10,
      drill.sim_seconds * 1e3, drill.sends_to_heal, drill.wall_ns);

  bench::Gate gate("bench_recovery");
  gate.pin("goodput_fault_00", g0, 1.0, 4);
  gate.pin("goodput_fault_05", g5, 0.965, 4);
  gate.pin("goodput_fault_10", g10, 0.92, 4);
  gate.pin("recovery_latency_sim_ms", drill.sim_seconds * 1e3, 6.0007, 4);
  gate.pin("recovery_sends_to_heal", drill.sends_to_heal, 2);
  return gate.exit_code();
}
