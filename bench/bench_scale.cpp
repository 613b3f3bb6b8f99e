// Internet-scale event-engine benchmark (PR 6, DESIGN.md §12).
//
// Two synthetic-at-scale workloads exercise the simulator core itself
// (no SGX model, no crypto — pure event scheduling, link state, and
// payload movement):
//
//  * "tor": a Tor-like overlay with thousands of ORs. 514-byte cells are
//    source-routed through 3-hop circuits; every relay also runs timer
//    chains (keepalives) and a slice of timers is scheduled-then-
//    cancelled. The workload runs twice — once on the calendar-queue /
//    slab-pool engine and once on the preserved pre-rewrite engine
//    (netsim/reference_sim.h) — giving a genuine before/after events/sec
//    ratio plus a cross-engine equivalence checksum.
//
//  * "as": a Gao–Rexford AS topology in the tens of thousands of ASes
//    (provider tree + random peering). Route announcements flood
//    valley-free from sampled origins. Run at several sizes to produce
//    the events/sec + RSS scale curve EXPERIMENTS.md walks through.
//
// Output: human tables by default; `--json` prints one flat JSON object.
// `--large` grows both workloads for the nightly leg. When telemetry
// capture is on (--export), workloads shrink hard:
// tracing every event at full scale is its own denial of service.
//
// Gate: the engines must agree at every size. At the default size the
// event and route counts are pinned, the speedup must clear a floor and
// the post-flood RSS a cap; the bench exits 1 naming any value that
// misses. Absolute events/sec is machine speed, left to perfbench.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "crypto/bytes.h"
#include "crypto/rng.h"
#include "netsim/reference_sim.h"
#include "netsim/sim.h"
#include "telemetry/trace.h"

using namespace tenet;
using Clock = std::chrono::steady_clock;

namespace {

constexpr uint32_t kHops = 3;
constexpr size_t kCellBytes = 514;  // Tor cell

// Host-measured limits at the default size: the last printed figures
// within 35% of the 5.48x speedup and the 108.4 MB post-flood RSS measured
// when this engine landed (5.48 * 0.65 = 3.562, 108.4 * 1.35 = 146.34).
constexpr double kSpeedupFloor = 3.57;
constexpr double kRssCapMb = 146.3;

/// Current resident set in MB (Linux /proc; 0 if unavailable).
double vm_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double mb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

uint64_t fold(uint64_t h, uint64_t v) {
  return (h ^ v) * 1099511628211ull;  // FNV-1a step
}

struct TorResult {
  size_t events = 0;
  double seconds = 0;
  uint64_t checksum = 0;
  uint64_t arrived = 0;
  uint64_t timer_fires = 0;
  uint64_t delivered = 0;
  double sim_end = 0;
  [[nodiscard]] double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(events) / seconds : 0;
  }
};

/// Deterministic per-relay delay source, identical across engines.
struct Lcg {
  uint64_t s;
  uint64_t next() { return s = s * 6364136223846793005ull + 1442695040888963407ull; }
};

/// The Tor-like workload, templated over the engine (SimT, NodeT) so the
/// exact same code drives both the new and the reference simulator.
template <typename SimT, typename NodeT>
TorResult run_tor_workload(size_t n_relays, size_t n_cells, uint64_t seed) {
  struct Shared {
    uint64_t checksum = 0;
    uint64_t arrived = 0;
    uint64_t timer_fires = 0;
  };

  struct Relay final : NodeT {
    Relay(SimT& s, std::string n, Shared* sh)
        : NodeT(s, std::move(n)), shared(sh) {}
    void handle_message(const netsim::Message& m) override {
      const uint32_t hop = m.port;
      if (hop + 1 < kHops) {
        const uint32_t next = crypto::read_u32(m.payload, (hop + 1) * 4);
        this->send(next, hop + 1, crypto::Bytes(m.payload));
      } else {
        ++shared->arrived;
        shared->checksum =
            fold(fold(fold(shared->checksum, m.src), m.dst),
                 static_cast<uint64_t>(this->sim().now() * 1e9));
      }
    }
    /// Keepalive chain: fires, reschedules itself `left` more times with
    /// a node-deterministic delay.
    void tick() {
      ++shared->timer_fires;
      if (chain_left == 0) return;
      --chain_left;
      const double delay = 0.0005 + static_cast<double>(lcg.next() % 997) * 1e-6;
      this->sim().schedule_timer(delay, this->id(), [this] { tick(); });
    }
    Shared* shared;
    Lcg lcg{0};
    uint32_t chain_left = 4;
  };

  SimT sim(seed);
  // Opened once the engine's virtual clock is installed, and closed before
  // the engine goes: the run's events are this root's descendants.
  TENET_TRACE_ROOT("scale", "tor_workload");
  if constexpr (requires { sim.reserve_nodes(n_relays); }) {
    sim.reserve_nodes(n_relays + 2);
    sim.set_run_cap(0);  // the workload is finite by construction
  }
  Shared shared;
  auto injector = std::make_unique<Relay>(sim, "inj", &shared);
  std::vector<std::unique_ptr<Relay>> relays;
  relays.reserve(n_relays);
  for (size_t i = 0; i < n_relays; ++i) {
    relays.push_back(std::make_unique<Relay>(sim, "or" + std::to_string(i),
                                             &shared));
    relays.back()->lcg.s = relays.back()->id() * 0x9e3779b97f4a7c15ull + seed;
  }
  const auto relay_id = [&](uint64_t r) {
    return relays[r % n_relays]->id();
  };

  // Per-link latencies for a realistic spread of pair state (the old
  // engine kept these in an ordered map — part of what's being measured).
  crypto::Drbg wl = crypto::Drbg::from_label(seed, "bench.scale.tor");
  for (size_t i = 0; i < n_relays * 2; ++i) {
    const netsim::NodeId a = relay_id(static_cast<uint64_t>(wl.uniform_real() * 1e9));
    const netsim::NodeId b = relay_id(static_cast<uint64_t>(wl.uniform_real() * 1e9));
    sim.set_latency(a, b, 0.005 + wl.uniform_real() * 0.05);
  }

  // Timer load: every relay starts a keepalive chain; every 4th relay
  // also schedules a decoy that is immediately cancelled (the cancel
  // bookkeeping is part of what's being measured).
  for (size_t i = 0; i < n_relays; ++i) {
    Relay* r = relays[i].get();
    const double d0 = 0.001 + static_cast<double>(r->lcg.next() % 997) * 1e-6;
    sim.schedule_timer(d0, r->id(), [r] { r->tick(); });
    if (i % 4 == 0) {
      const auto id = sim.schedule_timer(1.0, r->id(), [r] { r->tick(); });
      sim.cancel_timer(id);
    }
  }

  // Cells: source-routed 3-hop circuits, path embedded in the payload.
  // Injection is an open-loop stream: every cell is posted by its own
  // pre-scheduled timer, evenly spaced across kInjectWindow of simulated
  // time. That keeps a steady in-flight population (like real offered
  // load) instead of one instantaneous burst whose memory footprint
  // drowns out scheduler cost — and the injection timers themselves are
  // workload for the engines' timer paths.
  struct Cell {
    uint32_t first = 0;
    crypto::Bytes payload;
  };
  auto cells = std::make_shared<std::vector<Cell>>();
  cells->reserve(n_cells);
  for (size_t c = 0; c < n_cells; ++c) {
    crypto::Bytes payload;
    uint32_t path[kHops];
    for (uint32_t h = 0; h < kHops; ++h) {
      path[h] = relay_id(static_cast<uint64_t>(wl.uniform_real() * 1e9));
      crypto::append_u32(payload, path[h]);
    }
    payload.resize(kCellBytes, static_cast<uint8_t>(c & 0xff));
    cells->push_back({path[0], std::move(payload)});
  }
  constexpr double kInjectWindow = 0.5;
  const netsim::NodeId inj_id = injector->id();
  SimT* simp = &sim;
  for (size_t c = 0; c < n_cells; ++c) {
    sim.schedule_timer(
        kInjectWindow * static_cast<double>(c) / static_cast<double>(n_cells),
        inj_id, [simp, cells, inj_id, c] {
          simp->post(netsim::Message{inj_id, (*cells)[c].first, 0,
                                     crypto::Bytes((*cells)[c].payload)});
        });
  }

  TorResult res;
  const auto t0 = Clock::now();
  if constexpr (requires { sim.set_run_cap(0); }) {
    res.events = sim.run();
  } else {
    res.events = sim.run(std::numeric_limits<size_t>::max() - 1);
  }
  res.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  res.checksum = shared.checksum;
  res.arrived = shared.arrived;
  res.timer_fires = shared.timer_fires;
  res.delivered = sim.total_messages_delivered();
  res.sim_end = sim.now();
  return res;
}

// ---------------------------------------------------------------------
// Gao–Rexford AS flood (new engine only — this is the scale curve).

struct AsResult {
  size_t events = 0;
  double seconds = 0;
  uint64_t routes = 0;
  double rss_mb = 0;
  [[nodiscard]] double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(events) / seconds : 0;
  }
};

AsResult run_as_workload(size_t n_ases, size_t n_origins, uint64_t seed) {
  // Receiver-side relation of an announcement, encoded in the low port
  // bits; origin index in the high bits.
  enum : uint32_t { kFromCustomer = 0, kFromPeer = 1, kFromProvider = 2 };

  struct As final : netsim::Node {
    As(netsim::Simulator& s, std::string n) : Node(s, std::move(n)) {}
    void handle_message(const netsim::Message& m) override {
      const uint32_t origin = m.port >> 2;
      if ((seen & (1ull << origin)) != 0) return;  // already have a route
      seen |= 1ull << origin;
      ++routes;
      const uint32_t relation = m.port & 3u;
      // Gao–Rexford export: customer routes go everywhere; peer and
      // provider routes are exported only downhill to customers.
      if (relation == kFromCustomer) {
        for (const netsim::NodeId p : providers) {
          send(p, (origin << 2) | kFromCustomer, {});
        }
        for (const netsim::NodeId p : peers) {
          send(p, (origin << 2) | kFromPeer, {});
        }
      }
      for (const netsim::NodeId c : customers) {
        send(c, (origin << 2) | kFromProvider, {});
      }
    }
    void announce(uint32_t origin) {
      seen |= 1ull << origin;
      ++routes;
      for (const netsim::NodeId p : providers) {
        send(p, (origin << 2) | kFromCustomer, {});
      }
      for (const netsim::NodeId p : peers) {
        send(p, (origin << 2) | kFromPeer, {});
      }
      for (const netsim::NodeId c : customers) {
        send(c, (origin << 2) | kFromProvider, {});
      }
    }
    std::vector<netsim::NodeId> providers, customers, peers;
    uint64_t seen = 0;
    uint64_t routes = 0;
  };

  netsim::Simulator sim(seed);
  TENET_TRACE_ROOT("scale", "as_workload");
  sim.reserve_nodes(n_ases);
  sim.set_run_cap(0);
  std::vector<std::unique_ptr<As>> ases;
  ases.reserve(n_ases);
  for (size_t i = 0; i < n_ases; ++i) {
    ases.push_back(std::make_unique<As>(sim, "as" + std::to_string(i)));
  }

  // Provider tree biased toward early (big) ASes, plus random peering.
  crypto::Drbg wl = crypto::Drbg::from_label(seed, "bench.scale.as");
  const auto pick = [&](size_t bound) {
    return static_cast<size_t>(wl.uniform_real() * static_cast<double>(bound));
  };
  for (size_t i = 1; i < n_ases; ++i) {
    const size_t provider = pick(std::max<size_t>(1, i / 8));
    ases[i]->providers.push_back(ases[provider]->id());
    ases[provider]->customers.push_back(ases[i]->id());
  }
  for (size_t e = 0; e < n_ases / 4; ++e) {
    const size_t a = pick(n_ases);
    const size_t b = pick(n_ases);
    if (a == b) continue;
    ases[a]->peers.push_back(ases[b]->id());
    ases[b]->peers.push_back(ases[a]->id());
  }

  AsResult res;
  const auto t0 = Clock::now();
  for (uint32_t o = 0; o < n_origins; ++o) {
    // Stub origins: announce from the leafy end of the tree.
    ases[n_ases - 1 - pick(n_ases / 2)]->announce(o);
    res.events += sim.run();
  }
  res.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const auto& as : ases) res.routes += as->routes;
  res.rss_mb = vm_rss_mb();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  tenet::bench::Telemetry telemetry(argc, argv);
  bool json = false;
  bool large = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--json") json = true;
    if (a == "--large") large = true;
  }

  // Workload sizes. Telemetry capture traces every event — shrink hard
  // so the nightly capture job stays within memory and time budget.
  size_t tor_relays = large ? 5000 : 2500;
  size_t tor_cells = large ? 250'000 : 120'000;
  std::vector<size_t> as_sizes =
      large ? std::vector<size_t>{5000, 10'000, 20'000, 40'000}
            : std::vector<size_t>{5000, 10'000, 20'000};
  size_t as_origins = 12;
  if (telemetry.active()) {
    tor_relays = 300;
    tor_cells = 5000;
    as_sizes = {1000, 2000};
    as_origins = 4;
  }
  constexpr uint64_t kSeed = 2015;

  if (!json) {
    bench::title("bench_scale — internet-scale event engine (DESIGN.md §12)");
    bench::section("Tor overlay: calendar-queue engine vs reference engine");
  }

  // Best of two timed runs per engine (symmetric, so the ratio is fair):
  // a single run is exposed to scheduler noise on shared CI machines.
  const auto best_of_two = [](TorResult a, TorResult b) {
    return a.events_per_sec() >= b.events_per_sec() ? a : b;
  };
  const TorResult neu = best_of_two(
      run_tor_workload<netsim::Simulator, netsim::Node>(tor_relays, tor_cells,
                                                        kSeed),
      run_tor_workload<netsim::Simulator, netsim::Node>(tor_relays, tor_cells,
                                                        kSeed));
  const TorResult ref = best_of_two(
      run_tor_workload<netsim::refsim::Simulator, netsim::refsim::Node>(
          tor_relays, tor_cells, kSeed),
      run_tor_workload<netsim::refsim::Simulator, netsim::refsim::Node>(
          tor_relays, tor_cells, kSeed));

  const bool equal = neu.checksum == ref.checksum &&
                     neu.arrived == ref.arrived &&
                     neu.timer_fires == ref.timer_fires &&
                     neu.delivered == ref.delivered &&
                     neu.events == ref.events && neu.sim_end == ref.sim_end;
  const double speedup =
      ref.events_per_sec() > 0 ? neu.events_per_sec() / ref.events_per_sec() : 0;

  if (!json) {
    std::printf("relays=%zu cells=%zu events=%zu (timer fires=%llu)\n",
                tor_relays, tor_cells, neu.events,
                static_cast<unsigned long long>(neu.timer_fires));
    std::printf("  new engine:       %10s events/s  (%.2fs)\n",
                bench::human(neu.events_per_sec()).c_str(), neu.seconds);
    std::printf("  reference engine: %10s events/s  (%.2fs)\n",
                bench::human(ref.events_per_sec()).c_str(), ref.seconds);
    std::printf("  speedup: %.2fx   engines identical: %s (checksum %016llx)\n",
                speedup, equal ? "yes" : "NO",
                static_cast<unsigned long long>(neu.checksum));
    bench::section("Gao–Rexford AS flood: scale curve (new engine)");
    std::printf("%10s %12s %14s %10s\n", "ASes", "events", "events/s",
                "RSS MB");
  }

  std::vector<AsResult> curve;
  for (const size_t n : as_sizes) {
    curve.push_back(run_as_workload(n, as_origins, kSeed));
    if (!json) {
      const AsResult& r = curve.back();
      std::printf("%10zu %12zu %14s %10.1f\n", n, r.events,
                  bench::human(r.events_per_sec()).c_str(), r.rss_mb);
    }
  }
  const AsResult& top = curve.back();

  if (json) {
    std::printf("{\n");
    std::printf("  \"tor_relays\": %zu,\n", tor_relays);
    std::printf("  \"tor_events\": %zu,\n", neu.events);
    std::printf("  \"tor_events_per_sec\": %.0f,\n", neu.events_per_sec());
    std::printf("  \"tor_legacy_events_per_sec\": %.0f,\n",
                ref.events_per_sec());
    std::printf("  \"tor_speedup_x\": %.2f,\n", speedup);
    std::printf("  \"engines_equal\": %d,\n", equal ? 1 : 0);
    std::printf("  \"as_ases\": %zu,\n", as_sizes.back());
    std::printf("  \"as_events\": %zu,\n", top.events);
    std::printf("  \"as_events_per_sec\": %.0f,\n", top.events_per_sec());
    std::printf("  \"as_routes\": %llu,\n",
                static_cast<unsigned long long>(top.routes));
    std::printf("  \"as_peak_rss_mb\": %.1f\n", top.rss_mb);
    std::printf("}\n");
  }

  bench::Gate gate("bench_scale");
  gate.pin("engines_equal", equal, 1);
  if (!large && !telemetry.active()) {
    gate.pin("tor_events", neu.events, 493125);
    gate.pin("as_events", top.events, 240057);
    gate.pin("as_routes", top.routes, 240000);
    gate.host_at_least("tor_speedup_x", speedup, kSpeedupFloor);
    gate.host_at_most("as_peak_rss_mb", top.rss_mb, kRssCapMb);
  }
  return gate.exit_code();
}
