#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/ports.h"
#include "crypto/bytes.h"
#include "ledger.h"
#include "mbox/scenario.h"
#include "netsim/session_cache.h"
#include "routing/bgp.h"
#include "routing/scenario.h"
#include "sgx/epc.h"
#include "tor/network.h"

namespace perfbench {
namespace {

using namespace tenet;
using core::EnclaveNode;
using routing::AsNumber;

constexpr Clock kWall = Clock::kWall;
constexpr Clock kModeled = Clock::kModeled;
constexpr Clock kVirtual = Clock::kVirtual;

double d(uint64_t v) { return static_cast<double>(v); }

// ---------------------------------------------------------------------------
// Metric helpers shared by the workloads.

/// Every modeled metric of a window: the total, its exact layer split, and
/// the counts it is made of.
void add_modeled(MetricSet& m, const Counts& c, double ops) {
  const sgx::CostConstants k{};
  const ModeledSplit s = split_modeled(c, k);
  const auto& w = c.work;
  m.add_per_op("modeled_cycles_per_op", kModeled, "cycles", s.total(), ops);
  m.add_per_op("sgx_user_per_op", kModeled, "instr", d(c.sgx_user), ops);
  m.add_per_op("modeled.sgx_cycles_per_op", kModeled, "cycles", s.sgx, ops);
  m.add_per_op("modeled.crypto_cycles_per_op", kModeled, "cycles", s.crypto,
               ops);
  m.add_per_op("modeled.app_cycles_per_op", kModeled, "cycles", s.app, ops);
  m.add_per_op("modeled.boundary_cycles_per_op", kModeled, "cycles",
               s.boundary, ops);
  m.add_per_op("crypto.aes_blocks_per_op", kModeled, "blocks",
               d(w.aes_blocks), ops);
  m.add_per_op("crypto.aes_key_schedules_per_op", kModeled, "schedules",
               d(w.aes_key_schedules), ops);
  m.add_per_op("crypto.sha256_blocks_per_op", kModeled, "blocks",
               d(w.sha256_blocks), ops);
  m.add_per_op("crypto.limb_muladds_per_op", kModeled, "muladds",
               d(w.limb_muladds), ops);
  m.add_per_op("sgx.transitions_per_op", kModeled, "instr", d(c.transitions),
               ops);
  m.add_per_op("sgx.ereport_per_op", kModeled, "instr", d(c.ereport), ops);
  m.add_per_op("sgx.egetkey_per_op", kModeled, "instr", d(c.egetkey), ops);
  m.add_per_op("sgx.switchless_hits_per_op", kModeled, "calls",
               d(c.switchless_hits), ops);
  m.add_per_op("sgx.switchless_fallbacks_per_op", kModeled, "calls",
               d(c.switchless_fallbacks), ops);
  m.add_per_op("sgx.boundary_normal_per_op", kModeled, "instr",
               d(split_normal(c, k).boundary), ops);
}

/// Median and p99 of per-op simulated latency; p99 only where the sample
/// supports it (at least ten samples beyond it).
void add_vclock(MetricSet& m, std::vector<double> ms) {
  if (ms.empty()) return;
  const size_t n = ms.size();
  m.add("vclock_p50_ms", kVirtual, "ms", percentile(ms, 50), n);
  const std::optional<double> tail = tail_percentile(n);
  if (tail.has_value() && *tail >= 99) {
    m.add("vclock_p99_ms", kVirtual, "ms", percentile(ms, 99), n);
  }
}

/// Median of a per-op simulated duration.
void add_virtual_p50(MetricSet& m, const std::string& name,
                     std::vector<double> ms) {
  if (ms.empty()) return;
  const size_t n = ms.size();
  m.add(name, kVirtual, "ms", percentile(ms, 50), n);
}

/// Median wall time of the traced calls recorded under `stem`, scaled by
/// `scale` (1e3 for ms, 1e6 for us). Left out when nothing was traced.
void add_wall_p50(MetricSet& m, const Trace& trace, const std::string& stem,
                  const std::string& name, double scale,
                  const std::string& unit) {
  const auto it = trace.samples().find(stem);
  if (it == trace.samples().end() || it->second.empty()) return;
  m.add(name, kWall, unit, median(it->second) * scale, it->second.size());
}

/// Counters kept inside every enclave app, read through EnclaveNode::query.
/// A relaunched enclave starts its counters again, so a value that went
/// backwards counts from zero.
class CoreCounters {
 public:
  static constexpr std::array<core::CoreQuery, 4> kQueries = {
      core::kQueryAttestationsInitiated, core::kQueryRehandshakes,
      core::kQueryAttestRetries, core::kQueryShardEntriesApplied};

  void read(const std::vector<EnclaveNode*>& nodes) {
    for (EnclaveNode* node : nodes) {
      if (node->dead()) continue;
      for (size_t q = 0; q < kQueries.size(); ++q) {
        const uint64_t v = node->query(kQueries[q]);
        uint64_t& last = last_[{node, q}];
        totals_[q] += v >= last ? v - last : v;
        last = v;
      }
    }
  }
  void zero() { totals_ = {}; }
  [[nodiscard]] const std::array<uint64_t, 4>& totals() const {
    return totals_;
  }

 private:
  std::map<std::pair<EnclaveNode*, size_t>, uint64_t> last_;
  std::array<uint64_t, 4> totals_{};
};

/// EPC paging summed over the deployment's platforms.
std::pair<uint64_t, uint64_t> epc_paging(const std::vector<EnclaveNode*>& ns) {
  std::pair<uint64_t, uint64_t> p{0, 0};
  for (EnclaveNode* n : ns) {
    p.first += n->platform().epc().reloads();
    p.second += n->platform().epc().evictions();
  }
  return p;
}

void add_epc(MetricSet& m, uint64_t reloads, uint64_t evictions, double ops) {
  m.add_per_op("sgx.epc_reloads_per_op", kVirtual, "pages", d(reloads), ops);
  m.add_per_op("sgx.epc_evictions_per_op", kVirtual, "pages", d(evictions),
               ops);
}

/// What the three simulator workloads read over their window: the modeled
/// ledger, core counters, EPC paging and simulator counts.
class SimWindow {
 public:
  void begin(netsim::Simulator& sim, std::vector<EnclaveNode*> nodes) {
    nodes_ = std::move(nodes);
    core_.read(nodes_);
    core_.zero();
    epc0_ = epc_paging(nodes_);
    messages0_ = sim.total_messages_delivered();
    ledger_.emplace(nodes_);  // last, so the reads above are not op cost
  }
  /// Charges since the last reading belong to the ops.
  void take() { ledger_->take(); }
  /// Charges since the last reading were the benchmark's own probes.
  void mark() { ledger_->mark(); }
  void read_core() { core_.read(nodes_); }

  void close(netsim::Simulator& sim) {
    ledger_->take();
    counts_ = ledger_->total();
    messages_ = sim.total_messages_delivered() - messages0_;
    const auto epc = epc_paging(nodes_);
    reloads_ = epc.first - epc0_.first;
    evictions_ = epc.second - epc0_.second;
    core_.read(nodes_);
    core_totals_ = core_.totals();
  }

  void add_metrics(MetricSet& m, const netsim::Simulator& sim, double ops,
                   uint64_t events) const {
    add_modeled(m, counts_, ops);
    m.add_per_op("netsim.events_per_op", kVirtual, "events", d(events), ops);
    m.add_per_op("netsim.messages_per_op", kVirtual, "messages", d(messages_),
                 ops);
    m.add("netsim.dropped", kVirtual, "messages", d(sim.messages_dropped()));
    add_epc(m, reloads_, evictions_, ops);
    const auto& t = core_totals_;
    m.add_per_op("core.attestations_per_op", kVirtual, "attestations", d(t[0]),
                 ops);
    m.add_per_op("core.rehandshakes_per_op", kVirtual, "handshakes", d(t[1]),
                 ops);
    m.add("core.attest_retries", kVirtual, "count", d(t[2]));
    m.add_per_op("core.shard.entries_applied_per_op", kVirtual, "entries",
                 d(t[3]), ops);
  }

 private:
  std::vector<EnclaveNode*> nodes_;
  CoreCounters core_;
  std::optional<Ledger> ledger_;
  std::pair<uint64_t, uint64_t> epc0_{0, 0};
  uint64_t messages0_ = 0;
  Counts counts_;
  uint64_t messages_ = 0;
  uint64_t reloads_ = 0;
  uint64_t evictions_ = 0;
  std::array<uint64_t, 4> core_totals_{};
};

/// One issuing ecall followed by a simulator run to quiescence, each timed
/// on its own when traced. Returns the events the run delivered.
size_t issue_and_run(Trace* trace, netsim::Simulator& sim, EnclaveNode& node,
                     uint32_t subfn, crypto::BytesView arg) {
  {
    Span s(trace, "core.issue_us");
    (void)node.control(subfn, arg);
  }
  Span s(trace, "netsim.run_us");
  return sim.run();
}

void add_issue_and_run(MetricSet& m, const Trace& trace) {
  add_wall_p50(m, trace, "core.issue_us", "core.issue_us_p50", 1e6, "us");
  add_wall_p50(m, trace, "netsim.run_us", "netsim.run_us_p50", 1e6, "us");
}

uint64_t hash(std::string_view s) {
  return fnv1a(kFnvBasis, reinterpret_cast<const uint8_t*>(s.data()),
               s.size());
}

uint64_t fold(uint64_t h, uint64_t v) {
  return fnv1a(h, reinterpret_cast<const uint8_t*>(&v), sizeof(v));
}

// ---------------------------------------------------------------------------
// mbox-relay: TLS client -> 2 DPI middleboxes (keys provisioned by both
// endpoints, inspecting, IDS mode) -> echo server, over 4 long-lived
// sessions with switchless transitions on. One op: one record round trip,
// echoed by the server and inspected by both boxes in both directions.
//
// Why: the record path does nearly all the work here -- AES-CTR + HMAC,
// the DPI scan, boundary copies, switchless rings and the event engine.
// Attestation and modexp happen only in set-up; the session cache and EPC
// paging never run. 64 B records show per-record cost, 4 KB records
// per-byte AES.
//
// The traffic mix is a coverage choice, made without traffic data: no
// record-size distribution or DPI match rate from real traffic is in the
// repository, and none is cited here. Equal counts of each size spread
// every size class evenly over the window (4 KB records carry most of the
// bytes, so they set most of the wall time), and one matching record in
// each block of 8 spreads the alerts the same way. Do not tune the program
// to these shares; replace them when a committed trace gives real ones.

constexpr size_t kMboxSessions = 4;
constexpr size_t kMboxBoxes = 2;
constexpr std::array<size_t, 4> kRecordSizes = {64, 256, 1024, 4096};
constexpr uint64_t kPatternOneIn = 8;  // coverage share carrying kPattern
constexpr std::string_view kPattern = "ATTACK";
constexpr size_t kMboxWarmup = 64;

class MboxRelay final : public Workload {
 public:
  explicit MboxRelay(uint64_t seed) : rng_(seed), dep_(config()) {
    for (size_t s = 0; s < kMboxSessions; ++s) {
      const uint32_t sid = dep_.open_session();
      dep_.provision_from_client(sid);
      dep_.provision_from_server(sid);
      sids_.push_back(sid);
    }
    for (size_t i = 0; i < kMboxWarmup; ++i) (void)send(nullptr);
  }

  [[nodiscard]] size_t window_ops() const override { return 8'000; }
  [[nodiscard]] size_t kernel_bytes() const override { return 1024; }

  void verify_setup() override {
    for (const uint32_t sid : sids_) {
      bool ok = dep_.established(sid);
      for (size_t b = 0; b < kMboxBoxes; ++b) {
        ok = ok && dep_.session_active(b, sid);
      }
      if (!ok) throw std::runtime_error("mbox-relay: session not provisioned");
    }
  }

  void begin() override {
    std::vector<EnclaveNode*> nodes = {&dep_.client_node(),
                                       &dep_.server_node()};
    for (size_t b = 0; b < kMboxBoxes; ++b) nodes.push_back(&dep_.mbox_node(b));
    box0_ = box_counts();
    window_.begin(dep_.sim(), std::move(nodes));
    first_window_op_ = sent_;
  }

  double op(size_t i, Trace* trace) override {
    const double v0 = dep_.sim().now();
    const auto [wall, events] = send(trace);
    if (i < window_ops()) {
      vclock_ms_.push_back((dep_.sim().now() - v0) * 1e3);
      events_ += events;
    }
    return wall;
  }

  void close_window() override {
    window_.close(dep_.sim());
    const auto now = box_counts();
    for (size_t k = 0; k < now.size(); ++k) box_window_[k] = now[k] - box0_[k];
  }

  void finish(MetricSet& m, const Trace& trace, bool /*traced*/) override {
    // Every echo must match its request, in order, on every session, and
    // the server must have received exactly what was sent.
    std::vector<bool> bad(sent_, false);
    std::vector<uint64_t> window_echo(window_ops(), 0);
    for (size_t s = 0; s < kMboxSessions; ++s) {
      const auto to_client = dep_.client_received(sids_[s]);
      const auto to_server = dep_.server_received(sids_[s]);
      const std::vector<size_t>& ops = ops_of_session_[s];
      for (size_t k = 0; k < ops.size(); ++k) {
        const size_t id = ops[k];
        const bool ok = k < to_client.size() && k < to_server.size() &&
                        hash(to_client[k]) == echo_hash_[id] &&
                        hash(to_server[k]) == request_hash_[id];
        if (!ok) bad[id] = true;
        if (ok && id >= first_window_op_ &&
            id < first_window_op_ + window_ops()) {
          window_echo[id - first_window_op_] = hash(to_client[k]);
        }
      }
    }
    for (const uint64_t h : window_echo) checksum_ = fold(checksum_, h);
    attempted_ = sent_;
    failed_ = static_cast<uint64_t>(std::count(bad.begin(), bad.end(), true));
    // Both boxes inspect each record in both directions; a matching record
    // (and its echo) raises one alert per box and direction.
    const auto first = matches_.begin() + static_cast<ptrdiff_t>(first_window_op_);
    const uint64_t matching = static_cast<uint64_t>(
        std::count(first, first + static_cast<ptrdiff_t>(window_ops()), true));
    const uint64_t per_record = 2 * kMboxBoxes;
    if (box_window_[0] != per_record * window_ops() ||
        box_window_[1] != per_record * matching) {
      ++failed_;
    }

    const double ops = d(window_ops());
    window_.add_metrics(m, dep_.sim(), ops, events_);
    add_vclock(m, vclock_ms_);
    m.add_per_op("mbox.inspected_per_op", kVirtual, "records",
                 d(box_window_[0]), ops);
    m.add_per_op("mbox.alerts_per_op", kVirtual, "alerts", d(box_window_[1]),
                 ops);
    m.add("mbox.opaque_forwarded", kVirtual, "records", d(box_window_[2]));
    add_issue_and_run(m, trace);
    for (const size_t size : kRecordSizes) {
      const std::string b = ".b" + std::to_string(size);
      add_wall_p50(m, trace, "mbox.send_wall_us" + b,
                   "mbox.send_wall_us_p50" + b, 1e6, "us");
    }
  }

 private:
  /// The deployment keeps the scenario's own seed (its keys and simulator
  /// randomness); the benchmark seed only makes the records.
  static mbox::MboxScenarioConfig config() {
    mbox::MboxScenarioConfig cfg;
    cfg.n_middleboxes = kMboxBoxes;
    cfg.patterns = {std::string(kPattern)};
    cfg.switchless = true;
    return cfg;
  }

  /// Inspected, alerts and opaque-forwarded records, summed over boxes.
  std::array<uint64_t, 3> box_counts() {
    std::array<uint64_t, 3> c{};
    for (size_t b = 0; b < kMboxBoxes; ++b) {
      c[0] += dep_.inspected(b);
      c[1] += dep_.alerts(b);
      c[2] += dep_.opaque_forwarded(b);
    }
    return c;
  }

  /// Seeded lowercase filler; sizes cycle through kRecordSizes (shifted
  /// each round, so every session sees every size), and one record in each
  /// block of kPatternOneIn, at a seeded slot and offset, carries the
  /// pattern. Every seed thus sends the same mix of sizes and matches.
  std::string payload() {
    const size_t n = matches_.size();
    if (n % kPatternOneIn == 0) block_match_ = rng_.next() % kPatternOneIn;
    const size_t size = kRecordSizes[(n + n / kMboxSessions) % kRecordSizes.size()];
    std::string data(size, 'a');
    for (char& c : data) c = static_cast<char>('a' + rng_.next() % 26);
    const bool match = n % kPatternOneIn == block_match_;
    if (match) {
      const size_t at = rng_.next() % (size - kPattern.size() + 1);
      std::memcpy(data.data() + at, kPattern.data(), kPattern.size());
    }
    matches_.push_back(match);
    return data;
  }

  /// One record round trip on the next session (round robin). Returns its
  /// wall seconds and the simulator events it took.
  std::pair<double, size_t> send(Trace* trace) {
    const std::string data = payload();
    const size_t s = sent_ % kMboxSessions;
    crypto::Bytes arg;
    crypto::append_u32(arg, sids_[s]);
    crypto::append_lv(arg, crypto::to_bytes(data));
    request_hash_.push_back(hash(data));
    echo_hash_.push_back(hash("ok:" + data));
    ops_of_session_[s].push_back(sent_);
    ++sent_;

    const auto t0 = SteadyClock::now();
    const size_t events = issue_and_run(trace, dep_.sim(), dep_.client_node(),
                                        mbox::kCtlSendData, arg);
    const double wall = seconds_since(t0);
    if (trace != nullptr) {
      trace->add("mbox.send_wall_us.b" + std::to_string(data.size()), wall);
    }
    return {wall, events};
  }

  Rng rng_;
  mbox::MboxDeployment dep_;
  std::vector<uint32_t> sids_;
  SimWindow window_;
  size_t sent_ = 0;
  size_t first_window_op_ = 0;
  std::array<std::vector<size_t>, kMboxSessions> ops_of_session_;
  std::vector<uint64_t> request_hash_;
  std::vector<uint64_t> echo_hash_;
  std::vector<bool> matches_;  // per op: the record carries kPattern
  size_t block_match_ = 0;
  std::vector<double> vclock_ms_;
  uint64_t events_ = 0;
  std::array<uint64_t, 3> box0_{};
  std::array<uint64_t, 3> box_window_{};
};

// ---------------------------------------------------------------------------
// tor-circuits: the SGX-relay phase of §3.2, with 3 attested authorities
// and 12 auto-admitted relays. One op: the client builds a 3-hop circuit
// by in-enclave path selection, sends 4 requests through it (each answered
// "echo:<request>" by the destination), then tears it down.
//
// Why: per-hop DH (modexp) and synchronous transitions dominate and bulk
// AES is small; the Tor code runs only here.

constexpr size_t kTorAuthorities = 3;
constexpr size_t kTorRelays = 12;
constexpr size_t kRequestsPerCircuit = 4;
constexpr size_t kTorWarmup = 2;

class TorCircuits final : public Workload {
 public:
  explicit TorCircuits(uint64_t seed) : rng_(seed), net_(config()) {
    std::vector<size_t> auths(kTorAuthorities);
    for (size_t a = 0; a < kTorAuthorities; ++a) auths[a] = a;
    net_.attest_authority_mesh(auths);
    net_.publish_descriptors(auths);
    net_.run_vote(1, auths);
    consensus_ok_ = net_.fetch_consensus(0, net_.authority(0).id());
    for (size_t i = 0; i < kTorWarmup; ++i) (void)circuit(nullptr, false);
  }

  [[nodiscard]] size_t window_ops() const override { return 540; }
  [[nodiscard]] size_t kernel_bytes() const override { return 512; }

  void verify_setup() override {
    if (!consensus_ok_ || failed_ != 0) {
      throw std::runtime_error("tor-circuits: set-up circuits failed");
    }
  }

  void begin() override {
    std::vector<EnclaveNode*> nodes;
    for (size_t a = 0; a < net_.authority_count(); ++a) {
      nodes.push_back(&net_.authority(a));
    }
    for (size_t r = 0; r < net_.relay_count(); ++r) {
      nodes.push_back(&net_.relay(r));
    }
    nodes.push_back(&net_.client(0));
    window_.begin(net_.sim(), std::move(nodes));
  }

  double op(size_t i, Trace* trace) override {
    return circuit(trace, i < window_ops());
  }

  void close_window() override { window_.close(net_.sim()); }

  void finish(MetricSet& m, const Trace& trace, bool /*traced*/) override {
    const double ops = d(window_ops());
    window_.add_metrics(m, net_.sim(), ops, events_);
    add_vclock(m, vclock_ms_);
    add_virtual_p50(m, "tor.build_vclock_ms", build_vclock_ms_);
    add_virtual_p50(m, "tor.request_vclock_ms", request_vclock_ms_);
    add_issue_and_run(m, trace);
    add_wall_p50(m, trace, "tor.build_wall_ms", "tor.build_wall_ms_p50", 1e3,
                 "ms");
    add_wall_p50(m, trace, "tor.request_wall_us", "tor.request_wall_us_p50",
                 1e6, "us");
  }

 private:
  /// The network keeps the scenario's own seed (keys, in-enclave path
  /// selection); the benchmark seed only makes the requests.
  static tor::TorNetworkConfig config() {
    tor::TorNetworkConfig cfg;
    cfg.phase = tor::Phase::kSgxRelays;
    cfg.n_authorities = kTorAuthorities;
    cfg.n_relays = kTorRelays;
    return cfg;
  }

  /// Build, 4 request/echo exchanges, teardown. Returns wall seconds.
  double circuit(Trace* trace, bool in_window) {
    std::array<std::string, kRequestsPerCircuit> requests;
    for (size_t j = 0; j < requests.size(); ++j) {
      requests[j] = "get " + std::to_string(attempted_) + "." +
                    std::to_string(j) + " " + std::to_string(rng_.next());
    }
    EnclaveNode& client = net_.client(0);
    netsim::Simulator& sim = net_.sim();
    const double v0 = sim.now();
    const auto t0 = SteadyClock::now();
    size_t events = issue_and_run(trace, sim, client,
                                  tor::kCtlBuildAutoCircuit, {});
    bool ok = net_.circuit_state(0) == tor::CircuitState::kReady;
    if (trace != nullptr) trace->add("tor.build_wall_ms", seconds_since(t0));
    if (in_window) build_vclock_ms_.push_back((sim.now() - v0) * 1e3);

    for (size_t j = 0; ok && j < requests.size(); ++j) {
      crypto::Bytes arg;
      crypto::append_u32(arg, net_.destination().id());
      crypto::append_lv(arg, crypto::to_bytes(requests[j]));
      const double vr = sim.now();
      const auto tr = SteadyClock::now();
      events += issue_and_run(trace, sim, client, tor::kCtlSendData, arg);
      const crypto::Bytes last = client.control(tor::kCtlLastResponse);
      crypto::Reader r(last);
      const std::string response = crypto::to_string(r.lv());
      if (trace != nullptr) {
        trace->add("tor.request_wall_us", seconds_since(tr));
      }
      if (in_window) {
        request_vclock_ms_.push_back((sim.now() - vr) * 1e3);
        checksum_ = fold(checksum_, hash(response));
      }
      ok = response == "echo:" + requests[j];
    }
    events += issue_and_run(trace, sim, client, tor::kCtlTeardown, {});
    const double wall = seconds_since(t0);
    if (in_window) {
      vclock_ms_.push_back((sim.now() - v0) * 1e3);
      events_ += events;
    }
    ++attempted_;
    if (!ok) ++failed_;
    return wall;
  }

  Rng rng_;
  tor::TorNetwork net_;
  bool consensus_ok_ = false;
  SimWindow window_;
  std::vector<double> vclock_ms_;
  std::vector<double> build_vclock_ms_;
  std::vector<double> request_vclock_ms_;
  uint64_t events_ = 0;
};

// ---------------------------------------------------------------------------
// control-failover: the sharded inter-domain controller, 128 ASes over 8
// shards, robust. Set-up covers launch, the attestation phase and the first
// routing phase. An epoch is a fixed rotation of kEpochOps ops, each one
// step that runs the simulator until it is quiet:
//   1. kAses ops: one AS resubmits its policy and receives its routing
//      table (policy -> table), in ASN order;
//   2. one op: a shard is killed; the ring successor takes over and the
//      re-pointed ASes re-attest;
//   3. one op: the shard heals; it rejoins with attestation and receives
//      the state transfer.
// The resubmitting AS's table is checked against BgpComputation::compute
// after its op, and every AS table after the round's last resubmission,
// after the kill and after the heal. Victims rotate through every shard
// but the first. The window is the first epoch.
//
// Left out of the window: after any heal, 11 of the 128 ASes recompute the
// whole fixpoint on every resubmission (about 0.5 s each, against 3 ms for
// the others), so the next epoch takes about 6 s and later ones up to 12 s
// on a 4-core VM. A run could hold one or two such epochs, and their wall
// time varied by 15% between identical deployments in one run. The first
// epoch takes under 1 s, so five deployments of it fit in a run.
//
// The inputs do not depend on the seed: the topology and policies are the
// scenario defaults and the rotation is fixed. Seeded topologies or failure
// orders moved the cost per epoch by up to 30% from seed to seed, more than
// any bound this workload could hold.
//
// Why: the only workload where BGP computation, route serialization, shard
// replication and re-attestation run.

constexpr size_t kAses = 128;
constexpr size_t kShards = 8;
constexpr size_t kEpochOps = kAses + 2;  // resubmissions, kill, heal

class ControlFailover final : public Workload {
 public:
  explicit ControlFailover(uint64_t /*seed*/) : dep_(config()) {
    dep_.run_attestation_phase();
    dep_.run_routing_phase();
    for (const auto& [asn, policy] : dep_.policies()) asns_.push_back(asn);
    // The output oracle; policies never change, so neither does it.
    expected_ = routing::BgpComputation::compute(dep_.policies());
  }

  [[nodiscard]] size_t deployments() const override { return 5; }
  [[nodiscard]] size_t window_ops() const override { return kEpochOps; }
  [[nodiscard]] size_t kernel_bytes() const override { return 256; }

  void verify_setup() override {
    if (mismatched_tables(asns_, false) != 0) {
      throw std::runtime_error("control-failover: set-up tables wrong");
    }
  }

  void begin() override {
    std::vector<EnclaveNode*> nodes;
    for (size_t s = 0; s < dep_.shard_count(); ++s) {
      nodes.push_back(dep_.shard_node(s));
    }
    for (const AsNumber asn : asns_) nodes.push_back(dep_.as_node(asn));
    window_.begin(dep_.sim(), std::move(nodes));
  }

  double op(size_t i, Trace* trace) override {
    const size_t victim = 1 + (i / kEpochOps) % (kShards - 1);
    return step(i % kEpochOps, victim, trace, i < window_ops());
  }

  void close_window() override { window_.close(dep_.sim()); }

  void finish(MetricSet& m, const Trace& trace, bool traced) override {
    const double ops = d(window_ops());
    window_.add_metrics(m, dep_.sim(), ops, events_);
    add_vclock(m, vclock_ms_);
    add_virtual_p50(m, "routing.round_vclock_ms", round_vclock_ms_);
    add_virtual_p50(m, "core.shard.failover_vclock_ms", failover_vclock_ms_);
    add_virtual_p50(m, "core.shard.heal_vclock_ms", heal_vclock_ms_);
    m.add("routing.tables_mismatched", kVirtual, "tables",
          d(tables_mismatched_));
    add_issue_and_run(m, trace);
    if (traced) {
      if (!round_wall_ms_.empty()) {
        m.add("routing.round_wall_ms", kWall, "ms", median(round_wall_ms_),
              round_wall_ms_.size());
      }
      // The ground-truth computation the tables are checked against.
      std::vector<double> ms;
      for (int r = 0; r < 3; ++r) {
        const auto t0 = SteadyClock::now();
        (void)routing::BgpComputation::compute(dep_.policies());
        ms.push_back(seconds_since(t0) * 1e3);
      }
      m.add("routing.compute_ms", kWall, "ms", median(ms), ms.size());
    }
  }

 private:
  /// Step `k` of an epoch whose victim is `victim`, followed by its output
  /// check. Returns the step's wall seconds.
  double step(size_t k, size_t victim, Trace* trace, bool in_window) {
    netsim::Simulator& sim = dep_.sim();
    const double v0 = sim.now();
    const auto t0 = SteadyClock::now();
    bool ok = true;
    if (k < kAses) {
      Span s(trace, "core.issue_us");
      (void)dep_.as_node(asns_[k])->control(routing::kCtlSubmitPolicy, {});
    } else if (k == kAses) {
      ok = dep_.kill_shard(victim);
    } else {
      ok = dep_.heal_shard(victim);
    }
    size_t events = 0;
    {
      Span s(trace, "netsim.run_us");
      events = sim.run();
    }
    const double wall = seconds_since(t0);
    const double vclock_ms = (sim.now() - v0) * 1e3;

    if (k < kAses) {
      round_wall_ += wall;
      round_vclock_ += vclock_ms;
      if (k + 1 == kAses) {
        round_wall_ms_.push_back(round_wall_ * 1e3);
        if (in_window) round_vclock_ms_.push_back(round_vclock_);
        round_wall_ = 0;
        round_vclock_ = 0;
      }
    } else if (in_window) {
      (k == kAses ? failover_vclock_ms_ : heal_vclock_ms_)
          .push_back(vclock_ms);
    }
    if (k + 1 < kAses) {
      ok = probe(in_window, {asns_[k]}) && ok;
    } else if (k == kAses + 1) {
      ok = probe(in_window, asns_, victim) && ok;
    } else {
      ok = probe(in_window, asns_) && ok;
    }
    if (in_window) {
      vclock_ms_.push_back(vclock_ms);
      events_ += events;
    }
    ++attempted_;
    if (!ok) ++failed_;
    return wall;
  }

  /// Scenario defaults (topology and policies from its own seed), scaled
  /// to kAses ASes on kShards robust shards.
  static routing::ScenarioConfig config() {
    routing::ScenarioConfig cfg;
    cfg.n_ases = kAses;
    cfg.robust = true;
    cfg.retry.enabled = true;
    cfg.shards = kShards;
    return cfg;
  }

  /// Output check after a step, kept out of the op's modeled cost and wall
  /// time: the tables of `ases`, and `joined`, a healed shard that must
  /// have rejoined.
  bool probe(bool in_window, const std::vector<AsNumber>& ases,
             size_t joined = kShards) {
    if (in_window) window_.take();
    const size_t bad = mismatched_tables(ases, in_window);
    tables_mismatched_ += bad;
    bool ok = bad == 0;
    if (joined < kShards) {
      ok = dep_.shard_node(joined)->query(core::kQueryShardJoined) == 1 && ok;
    }
    if (in_window) {
      window_.read_core();
      window_.mark();
    }
    return ok;
  }

  /// Of `ases`, those whose table differs from the ground truth (or that
  /// have none). `fold_routes` adds every route's AS path to the output
  /// checksum.
  size_t mismatched_tables(const std::vector<AsNumber>& ases,
                           bool fold_routes) {
    size_t bad = 0;
    for (const AsNumber asn : ases) {
      const auto it = expected_.tables.find(asn);
      if (!dep_.as_has_routes(asn) || it == expected_.tables.end()) {
        ++bad;
        continue;
      }
      const routing::RoutingTable table = dep_.table_of(asn);
      bool same = table.size() == it->second.size();
      for (const auto& [prefix, route] : table) {
        const auto ref = it->second.find(prefix);
        same = same && ref != it->second.end() &&
               route.as_path == ref->second.as_path;
        if (fold_routes) {
          checksum_ = fnv1a(
              checksum_, reinterpret_cast<const uint8_t*>(route.as_path.data()),
              route.as_path.size() * sizeof(routing::AsNumber));
        }
      }
      if (!same) ++bad;
    }
    return bad;
  }

  routing::RoutingDeployment dep_;
  std::vector<AsNumber> asns_;  // in ASN order
  routing::ComputationResult expected_;
  SimWindow window_;
  std::vector<double> vclock_ms_;
  std::vector<double> round_vclock_ms_;
  std::vector<double> round_wall_ms_;
  std::vector<double> failover_vclock_ms_;
  std::vector<double> heal_vclock_ms_;
  double round_wall_ = 0;
  double round_vclock_ = 0;
  uint64_t tables_mismatched_ = 0;
  uint64_t events_ = 0;
};

// ---------------------------------------------------------------------------
// session-churn: 2^20 sessions in a SessionCache with a 4096-entry hot
// tier. Each session's cold state is pinned to an EPC page (16 sessions a
// page, 65536 non-zero pages against a 32k-page EPC, so zero-page
// shortcuts never apply and half the pages live spilled). Targets follow a
// seeded Zipf(1.0) popularity scattered over the id space; one op in 64 is
// a rekey (install on a live peer, and its page rewritten). One op: a
// 256 B seal_into on the chosen session, metered by a standalone CostModel
// through CostScope.
//
// Why: session-cache resume and EPC MEE reloads do most of the work, with
// no simulator, no enclaves and no modexp. Zipf keeps about half the finds
// on the hot tier (uniform popularity would hit it 0.4% of the time and
// hide any hot-tier change).
//
// Like mbox-relay's mix, the shares are coverage choices made without
// traffic data: Zipf(1.0) so that both the hot tier and cold resumes run,
// one rekey in 64 ops so that writes sit beside reads, 16 sessions a page
// so that the pages outnumber the EPC twice over. No measured session
// popularity or rekey rate is behind them; do not tune the program to them.

constexpr size_t kChurnSessions = size_t{1} << 20;
constexpr size_t kChurnHot = 4096;
constexpr size_t kSessionsPerPage = 16;
constexpr size_t kChurnPages = kChurnSessions / kSessionsPerPage;
constexpr size_t kEpcPages = 32 * 1024;
constexpr size_t kChurnRecord = 256;
constexpr uint64_t kRekeyOneIn = 64;  // coverage share, not measured
constexpr size_t kChurnWarmup = 20'000;
constexpr size_t kOracleEvery = 16;
constexpr sgx::EnclaveId kOwner = 1;

/// Sealed-stream checksums of the window, pinned for the development and
/// the hold-out seed. Other seeds are checked by the per-op oracle only.
constexpr std::array<std::pair<uint64_t, uint64_t>, 2> kPinnedChurn = {{
    {2015, 0x03a3fa540319a948ull},
    {7, 0xd84c5d116e1a1048ull},
}};

using SessionKey = std::array<uint8_t, netsim::SecureChannel::kKeySize>;

class SessionChurn final : public Workload {
 public:
  explicit SessionChurn(uint64_t seed)
      : seed_(seed),
        rng_(seed ^ 0x6368726eull),
        scatter_(Rng(seed ^ 0x73636174ull).next() | 1),
        epc_(mee_key(seed), kEpcPages),
        cache_(kChurnHot),
        plain_(kChurnRecord),
        sealed_(netsim::SecureChannel::sealed_size(kChurnRecord)),
        reference_(sealed_.size()) {
    Rng fill(seed ^ 0x706c61696eull);
    for (uint8_t& b : plain_) b = static_cast<uint8_t>(fill.next());
    zipf_cdf_.resize(kChurnSessions);
    double acc = 0;
    for (size_t k = 0; k < kChurnSessions; ++k) {
      acc += 1.0 / static_cast<double>(k + 1);
      zipf_cdf_[k] = acc;
    }
    for (double& c : zipf_cdf_) c /= acc;
    for (uint64_t s = 0; s < kChurnSessions; ++s) {
      cache_.install(s, key_of(s, 0), /*initiator=*/true);
    }
    for (uint64_t p = 0; p < kChurnPages; ++p) {
      epc_.add_page(kOwner, p, page_of(p, 0));
    }
    for (size_t i = 0; i < kChurnWarmup; ++i) (void)churn(nullptr, false);
  }

  [[nodiscard]] size_t window_ops() const override { return 50'000; }
  [[nodiscard]] size_t kernel_bytes() const override { return kChurnRecord; }

  void verify_setup() override {
    if (failed_ != 0 || cache_.size() != kChurnSessions ||
        epc_.evictions() == 0) {
      throw std::runtime_error("session-churn: set-up check failed");
    }
  }

  void begin() override {
    counts0_ = read_counts(model_);
    stats0_ = cache_.stats();
    reloads0_ = epc_.reloads();
    evictions0_ = epc_.evictions();
  }

  double op(size_t i, Trace* trace) override {
    return churn(trace, i < window_ops());
  }

  void close_window() override {
    counts_ = minus(read_counts(model_), counts0_);
    const auto& s = cache_.stats();
    hot_hits_ = s.hot_hits - stats0_.hot_hits;
    resumes_ = s.resumes - stats0_.resumes;
    evictions_ = s.evictions - stats0_.evictions;
    epc_reloads_ = epc_.reloads() - reloads0_;
    epc_evictions_ = epc_.evictions() - evictions0_;
  }

  void finish(MetricSet& m, const Trace& trace, bool /*traced*/) override {
    for (const auto& [seed, sum] : kPinnedChurn) {
      if (seed == seed_ && sum != checksum_) ++failed_;
    }
    const double ops = d(window_ops());
    add_modeled(m, counts_, ops);
    add_epc(m, epc_reloads_, epc_evictions_, ops);
    m.add_ratio("netsim.session_cache.hit_ratio", kVirtual, "ratio",
                Ratio{d(hot_hits_), d(hot_hits_ + resumes_), "finds"});
    m.add_per_op("netsim.session_cache.resumes_per_op", kVirtual, "resumes",
                 d(resumes_), ops);
    m.add_per_op("netsim.session_cache.evictions_per_op", kVirtual,
                 "evictions", d(evictions_), ops);
    add_wall_p50(m, trace, "netsim.session_cache.find_us",
                 "netsim.session_cache.find_us_p50", 1e6, "us");
    add_wall_p50(m, trace, "netsim.channel.seal_us",
                 "netsim.channel.seal_us_p50", 1e6, "us");
    add_wall_p50(m, trace, "sgx.read_page_us", "sgx.read_page_us_p50", 1e6,
                 "us");
  }

 private:
  static crypto::Bytes mee_key(uint64_t seed) {
    Rng r(seed ^ 0x6d6565ull);
    crypto::Bytes key(32);
    for (uint8_t& b : key) b = static_cast<uint8_t>(r.next());
    return key;
  }

  SessionKey key_of(uint64_t peer, uint32_t epoch) const {
    Rng r(seed_ ^ (peer * 0x9e3779b97f4a7c15ull) ^
          (static_cast<uint64_t>(epoch) << 40));
    SessionKey key;
    for (size_t i = 0; i < key.size(); i += 8) {
      const uint64_t v = r.next();
      std::memcpy(key.data() + i, &v, 8);
    }
    return key;
  }

  /// Cold state of a page: seeded bytes, never all zero.
  crypto::Bytes page_of(uint64_t page, uint32_t version) const {
    Rng r(seed_ ^ (page * 0xd1b54a32d192ed03ull) ^
          (static_cast<uint64_t>(version) << 48));
    crypto::Bytes bytes(sgx::kPageSize);
    for (size_t i = 0; i < bytes.size(); i += 8) {
      const uint64_t v = r.next();
      std::memcpy(bytes.data() + i, &v, 8);
    }
    bytes[0] |= 1;
    return bytes;
  }

  uint32_t epoch_of(uint64_t peer) const {
    const auto it = epochs_.find(peer);
    return it == epochs_.end() ? 0 : it->second;
  }

  /// One op. Returns its wall seconds.
  double churn(Trace* trace, bool in_window) {
    const bool rekey = rng_.next() % kRekeyOneIn == 0;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), rng_.unit()) -
        zipf_cdf_.begin());
    const uint64_t peer = (rank * scatter_) & (kChurnSessions - 1);
    const uint64_t page = peer / kSessionsPerPage;
    SessionKey new_key{};
    crypto::Bytes new_page;
    if (rekey) {
      new_key = key_of(peer, ++epochs_[peer]);
      new_page = page_of(page, ++page_versions_[page]);
    }

    const auto t0 = SteadyClock::now();
    {
      sgx::CostScope scope(model_);
      if (rekey) {
        cache_.install(peer, new_key, /*initiator=*/true);
        epc_.write_page(kOwner, page, new_page);
      }
      const uint64_t resumes = cache_.stats().resumes;
      netsim::SecureChannel* chan = nullptr;
      {
        Span s(trace, "netsim.session_cache.find_us");
        chan = cache_.find(peer);
      }
      if (cache_.stats().resumes != resumes) {
        // A cold session's state comes back through the MEE first (an
        // ELDU reload when its page was spilled).
        Span s(trace, "sgx.read_page_us");
        (void)epc_.read_page(kOwner, page);
      }
      Span s(trace, "netsim.channel.seal_us");
      chan->seal_into(plain_, sealed_);
    }
    const double wall = seconds_since(t0);

    uint64_t& seq = seqs_[peer];
    if (rekey) seq = 0;
    const uint64_t used = seq++;
    ++attempted_;
    if (attempted_ % kOracleEvery == 0) {
      // A channel that never left the hot tier seals the same bytes.
      netsim::SecureChannel fresh(key_of(peer, epoch_of(peer)), true,
                                  netsim::SecureChannel::Resume{used, 0, 0});
      fresh.seal_into(plain_, reference_);
      if (reference_ != sealed_) ++failed_;
    }
    if (in_window) checksum_ = fnv1a(checksum_, sealed_.data(), sealed_.size());
    return wall;
  }

  uint64_t seed_;
  Rng rng_;
  uint64_t scatter_;  // odd multiplier: rank -> peer is a bijection
  sgx::CostModel model_;
  sgx::Epc epc_;
  netsim::SessionCache cache_;
  std::vector<double> zipf_cdf_;
  std::vector<uint8_t> plain_;
  std::vector<uint8_t> sealed_;
  std::vector<uint8_t> reference_;
  std::unordered_map<uint64_t, uint32_t> epochs_;
  std::unordered_map<uint64_t, uint32_t> page_versions_;
  std::unordered_map<uint64_t, uint64_t> seqs_;

  Counts counts0_;
  netsim::SessionCache::Stats stats0_;
  uint64_t reloads0_ = 0;
  uint64_t evictions0_ = 0;
  Counts counts_;
  uint64_t hot_hits_ = 0;
  uint64_t resumes_ = 0;
  uint64_t evictions_ = 0;
  uint64_t epc_reloads_ = 0;
  uint64_t epc_evictions_ = 0;
};

template <class W>
std::unique_ptr<Workload> make(uint64_t seed) {
  return std::make_unique<W>(seed);
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> kAll = {
      {"mbox-relay",
       "record path: AES-CTR+HMAC, DPI, boundary copies, switchless rings "
       "and the event engine; no modexp, session cache or EPC paging. The "
       "size mix and match share are coverage choices, not traffic data",
       &make<MboxRelay>},
      {"tor-circuits",
       "per-hop DH modexp and synchronous transitions; the only workload "
       "running the Tor code",
       &make<TorCircuits>},
      {"control-failover",
       "the only workload running BGP computation, route serialization, "
       "shard replication and re-attestation",
       &make<ControlFailover>},
      {"session-churn",
       "session-cache resume and EPC MEE reloads under Zipf popularity; no "
       "simulator, enclaves or modexp. Popularity and rekey share are "
       "coverage choices, not measured traffic",
       &make<SessionChurn>},
  };
  return kAll;
}

}  // namespace perfbench
