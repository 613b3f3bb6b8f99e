// Micro-benchmarks (google-benchmark): wall-clock timings of every
// substrate primitive the reproduction is built from. These are sanity
// numbers for the emulator itself (the paper-facing metrics are the
// instruction counts printed by the table benches).
#include <benchmark/benchmark.h>

#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/bignum_ifma.h"
#include "crypto/dh.h"
#include "crypto/hmac.h"
#include "crypto/rng.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"
#include "mbox/dpi.h"
#include "routing/bgp.h"
#include "sgx/apps.h"
#include "sgx/epc.h"
#include "sgx/platform.h"
#include "tor/cell.h"
#include "tor/dht.h"

using namespace tenet;

namespace {

crypto::Drbg& rng() {
  static crypto::Drbg r = crypto::Drbg::from_label(42, "bench.micro");
  return r;
}

// --- crypto ---

void BM_Sha256_1KB(benchmark::State& state) {
  const crypto::Bytes data = rng().bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KB);

void BM_HmacSha256_256B(benchmark::State& state) {
  const crypto::Bytes key = rng().bytes(32);
  const crypto::Bytes data = rng().bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256_256B);

void BM_Aes128_EcbBlock(benchmark::State& state) {
  crypto::AesKey128 key{};
  rng().fill(key);
  const crypto::Aes128 aes(key);
  crypto::AesBlock block{};
  for (auto _ : state) {
    aes.encrypt_block(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128_EcbBlock);

void BM_Aes128_Ctr1500B(benchmark::State& state) {
  crypto::AesKey128 key{};
  rng().fill(key);
  const crypto::Aes128 aes(key);
  const crypto::Bytes packet = rng().bytes(1500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes.ctr_crypt(1, 0, packet));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1500);
}
BENCHMARK(BM_Aes128_Ctr1500B);

void BM_AeadSealOpen_1500B(benchmark::State& state) {
  const crypto::Aead aead(rng().bytes(32));
  const crypto::Bytes packet = rng().bytes(1500);
  uint64_t seq = 0;
  for (auto _ : state) {
    const crypto::Bytes record = aead.seal(1, seq++, packet);
    benchmark::DoNotOptimize(aead.open(record));
  }
}
BENCHMARK(BM_AeadSealOpen_1500B);

void BM_ModExp1024(benchmark::State& state) {
  // The single primitive that dominates the paper's attestation cost
  // (Table 1): one 1024-bit modular exponentiation with a ~1023-bit
  // exponent, fresh Montgomery context per call (mod_exp's own path).
  const crypto::DhGroup& g = crypto::DhGroup::oakley_group2();
  const crypto::BigInt base =
      crypto::BigInt::from_bytes_be(rng().bytes(128)).mod(g.p());
  const crypto::BigInt e =
      crypto::BigInt::from_bytes_be(rng().bytes(128)).mod(g.q());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigInt::mod_exp(base, e, g.p()));
  }
}
BENCHMARK(BM_ModExp1024);

void BM_DhExchange(benchmark::State& state) {
  const crypto::DhGroup* groups[] = {
      &crypto::DhGroup::oakley_group1(), &crypto::DhGroup::oakley_group2(),
      &crypto::DhGroup::modp_group5(), &crypto::DhGroup::modp_group14()};
  const crypto::DhGroup& g = *groups[state.range(0)];
  for (auto _ : state) {
    const crypto::DhKeyPair a(g, rng());
    const crypto::DhKeyPair b(g, rng());
    benchmark::DoNotOptimize(a.shared_secret(b.public_value()));
  }
  state.SetLabel(g.name());
}
BENCHMARK(BM_DhExchange)->DenseRange(0, 3);

void BM_IfmaAmmSquare(benchmark::State& state) {
  // One radix-52 AMM per iteration: a dependent in-place squaring chain,
  // amm(x, x, x), as the exponentiation ladder runs it. The arg is the
  // modulus size in bits; the four MODP primes cover chunk counts 2-5.
  if (!crypto::ifma::available()) {
    state.SkipWithError("CPU lacks AVX512-IFMA");
    return;
  }
  const crypto::DhGroup* g = nullptr;
  for (const crypto::DhGroup* c :
       {&crypto::DhGroup::oakley_group1(), &crypto::DhGroup::oakley_group2(),
        &crypto::DhGroup::modp_group5(), &crypto::DhGroup::modp_group14()}) {
    if (static_cast<int64_t>(c->p().bit_length()) == state.range(0)) g = c;
  }
  const crypto::BigInt& p = g->p();
  const size_t k = p.limb_count();
  const size_t l = crypto::ifma::limbs52(k);
  auto limbs64 = [k](const crypto::BigInt& x) {
    std::vector<uint64_t> out(k);
    for (size_t j = 0; j < k; ++j) out[j] = x.shr(64 * j).low_u64();
    return out;
  };
  uint64_t inv = 1;  // p^-1 mod 2^64 by Newton iteration
  for (int i = 0; i < 6; ++i) inv *= 2 - p.low_u64() * inv;
  const std::vector<uint64_t> n64 = limbs64(p);
  const std::vector<uint64_t> r52sq64 =
      limbs64(crypto::BigInt(1).shl(2 * 52 * l).mod(p));
  crypto::ifma::Ctx ctx;
  crypto::ifma::init(ctx, n64.data(), k, 0 - inv, r52sq64.data());
  std::vector<uint64_t> x(ctx.lp);
  crypto::ifma::to52(
      limbs64(crypto::BigInt::from_bytes_be(rng().bytes(8 * k)).mod(p))
          .data(),
      k, x.data(), ctx.lp);
  for (auto _ : state) {
    crypto::ifma::amm(ctx, x.data(), x.data(), x.data());
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(g->name() + ", " + std::to_string(ctx.nc) + " chunks");
}
BENCHMARK(BM_IfmaAmmSquare)->Arg(768)->Arg(1024)->Arg(1536)->Arg(2048);

void BM_SchnorrSign(benchmark::State& state) {
  const crypto::SchnorrKeyPair kp(crypto::DhGroup::oakley_group2(), rng());
  const crypto::Bytes msg = rng().bytes(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.sign_deterministic(msg));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  const crypto::SchnorrKeyPair kp(crypto::DhGroup::oakley_group2(), rng());
  const crypto::Bytes msg = rng().bytes(64);
  const crypto::SchnorrSignature sig = kp.sign_deterministic(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.public_key().verify(msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

// --- SGX emulator ---

void BM_EnclaveEcallRoundTrip(benchmark::State& state) {
  sgx::Authority authority;
  sgx::Vendor vendor("micro");
  sgx::Platform platform(authority, "micro-ecall");
  sgx::Enclave& enclave = platform.launch(vendor, sgx::apps::echo_image());
  const crypto::Bytes arg = rng().bytes(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enclave.ecall(sgx::apps::kEchoReverse, arg));
  }
}
BENCHMARK(BM_EnclaveEcallRoundTrip);

void BM_QuoteGeneration(benchmark::State& state) {
  sgx::Authority authority;
  sgx::Vendor vendor("micro");
  sgx::Platform platform(authority, "micro-quote");
  sgx::AttestationConfig cfg;
  sgx::Enclave& target =
      platform.launch(vendor, sgx::apps::target_image(authority, cfg));
  (void)platform.quoting_enclave();
  // Drive a full attestation round per iteration (includes QUOTE).
  sgx::Platform challenger_host(authority, "micro-quote-chal");
  sgx::Enclave& challenger = challenger_host.launch(
      vendor, sgx::apps::challenger_image(authority, cfg));
  for (auto _ : state) {
    state.PauseTiming();
    sgx::Enclave& fresh_chal = challenger_host.launch(
        vendor, sgx::apps::challenger_image(authority, cfg));
    state.ResumeTiming();
    const crypto::Bytes msg1 = fresh_chal.ecall(sgx::apps::kCreateChallenge, {});
    const crypto::Bytes msg2 = target.ecall(sgx::apps::kHandleChallenge, msg1);
    benchmark::DoNotOptimize(
        fresh_chal.ecall(sgx::apps::kConsumeResponse, msg2));
    state.PauseTiming();
    fresh_chal.destroy();
    state.ResumeTiming();
  }
  (void)challenger;
}
BENCHMARK(BM_QuoteGeneration)->Iterations(20);

// A full 64-page EPC holding 65 pages of seeded bytes. The lowest resident
// page is the OS's victim, so reading pages 0 and 1 in turn always reads a
// spilled page: one EWB of the other and one ELDU per iteration.
void BM_EpcPagingCycle(benchmark::State& state) {
  constexpr size_t kCapacity = 64;
  sgx::Epc epc(rng().bytes(32), kCapacity);
  for (uint64_t v = 0; v <= kCapacity; ++v) {
    epc.add_page(1, v, rng().bytes(sgx::kPageSize));
  }
  uint64_t spilled = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(epc.read_page(1, spilled));
    spilled ^= 1;
  }
  if (epc.reloads() != static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("a read did not page in");
  }
}
BENCHMARK(BM_EpcPagingCycle);

// The same full EPC, read round-robin without paging: a lookup and a
// 4 KB copy per iteration.
void BM_EpcReadResident(benchmark::State& state) {
  constexpr size_t kCapacity = 64;
  sgx::Epc epc(rng().bytes(32), kCapacity);
  for (uint64_t v = 0; v < kCapacity; ++v) {
    epc.add_page(1, v, rng().bytes(sgx::kPageSize));
  }
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(epc.read_page(1, v));
    v = (v + 1) % kCapacity;
  }
  if (epc.evictions() != 0) state.SkipWithError("a read paged");
}
BENCHMARK(BM_EpcReadResident);

// --- applications ---

void BM_BgpCompute(benchmark::State& state) {
  crypto::Drbg topo_rng = crypto::Drbg::from_label(
      static_cast<uint64_t>(state.range(0)), "bench.bgp");
  const routing::AsGraph graph =
      routing::AsGraph::random(topo_rng, static_cast<size_t>(state.range(0)));
  const auto policies = routing::RoutingPolicy::from_graph(graph, topo_rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::BgpComputation::compute(policies));
  }
}
BENCHMARK(BM_BgpCompute)->Arg(10)->Arg(20)->Arg(30)->Arg(128);

// One shard's share of control-failover's fixpoint: 128 ASes, the origins
// of round-robin slice 0 of 8 (the sharded controller's partition).
void BM_BgpComputeSlice(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  crypto::Drbg topo_rng = crypto::Drbg::from_label(n, "bench.bgp");
  const routing::AsGraph graph = routing::AsGraph::random(topo_rng, n);
  const auto policies = routing::RoutingPolicy::from_graph(graph, topo_rng);
  std::set<routing::AsNumber> origins;
  size_t index = 0;
  for (const auto& [asn, policy] : policies) {
    if (index++ % 8 == 0) origins.insert(asn);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::BgpComputation::compute(policies, origins));
  }
}
BENCHMARK(BM_BgpComputeSlice)->Arg(128);

void BM_ChordLookup(benchmark::State& state) {
  tor::ChordRing ring;
  for (netsim::NodeId i = 1; i <= state.range(0); ++i) {
    tor::RelayDescriptor d;
    d.node = i;
    d.nickname = "r";
    d.nickname += std::to_string(i);
    d.onion_public = crypto::Bytes(16, static_cast<uint8_t>(i));
    ring.join(d);
  }
  netsim::NodeId target = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.find_relay(target));
    target = target % static_cast<netsim::NodeId>(state.range(0)) + 1;
  }
}
BENCHMARK(BM_ChordLookup)->Arg(16)->Arg(256);

void BM_DpiScan_1500B(benchmark::State& state) {
  mbox::PatternSet patterns;
  for (int i = 0; i < 32; ++i) patterns.add("signature-" + std::to_string(i));
  patterns.build();
  mbox::DpiScanner scanner(patterns);
  const crypto::Bytes packet = rng().bytes(1500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scanner.scan(packet));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1500);
}
BENCHMARK(BM_DpiScan_1500B);

// DPI over inputs chosen against the root-state skip: every byte a first
// byte ("A..."), a deep walk that falls back at every 6th byte ("ATTAC..."),
// a return to the root every 3 bytes ("xxA..."), and a 32-keyword set whose
// first bytes cover most of the lowercase letters, over random lowercase
// and HTTP-like text. 4 KB inputs, the largest mbox-relay record size. The
// per_byte counter is the wall time per scanned byte.
const std::vector<std::string> kAttack = {"ATTACK"};
const std::vector<std::string> kWebAttack = {
    "select",    "union",   "insert",      "drop table",
    "delete",    "update",  "<script",     "alert(",
    "onerror",   "onload",  "<iframe",     "javascript:",
    "eval(",     "exec(",   "/etc/passwd", "../",
    "cmd.exe",   "wget ",   "curl ",       "base64",
    "document.", "cookie",  "sleep(",      "benchmark(",
    "xp_",       "concat(", "char(",       "or 1=1",
    "%00",       "<?php",   "waitfor",     "information_schema"};

std::string repeat_to(std::string_view unit, size_t n) {
  std::string out;
  while (out.size() < n) out += unit;
  out.resize(n);
  return out;
}

std::string random_lowercase(size_t n) {
  std::string out(n, 'a');
  for (char& c : out) c = static_cast<char>('a' + rng().uniform(26));
  return out;
}

std::string http_like(size_t n) {
  return repeat_to(
      "GET /catalog/item.php?id=4182&category=garden&sort=price HTTP/1.1\r\n"
      "Host: shop.example.com\r\nUser-Agent: Mozilla/5.0 (X11; Linux x86_64)"
      "\r\nAccept: text/html,application/xhtml+xml;q=0.9\r\n"
      "Accept-Language: en-US,en;q=0.5\r\nConnection: keep-alive\r\n"
      "Referer: https://shop.example.com/catalog/index.html\r\n\r\n"
      "<html><head><title>Garden tools</title></head><body><p>Our spring "
      "range of rakes, hoes and watering cans is now in stock.</p></body>"
      "</html>\r\n",
      n);
}

void BM_DpiScan(benchmark::State& state, const std::vector<std::string>& set,
                const std::string& input) {
  mbox::PatternSet patterns;
  for (const std::string& p : set) patterns.add(p);
  patterns.build();
  mbox::DpiScanner scanner(patterns);
  const crypto::Bytes data = crypto::to_bytes(input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scanner.scan(data));
  }
  const auto bytes = static_cast<int64_t>(state.iterations() * data.size());
  state.SetBytesProcessed(bytes);
  state.counters["per_byte"] = benchmark::Counter(
      static_cast<double>(bytes),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_DpiScan, attack_all_A, kAttack, repeat_to("A", 4096));
BENCHMARK_CAPTURE(BM_DpiScan, attack_ATTAC, kAttack, repeat_to("ATTAC", 4096));
BENCHMARK_CAPTURE(BM_DpiScan, attack_xxA, kAttack, repeat_to("xxA", 4096));
BENCHMARK_CAPTURE(BM_DpiScan, web32_lowercase, kWebAttack,
                  random_lowercase(4096));
BENCHMARK_CAPTURE(BM_DpiScan, web32_http, kWebAttack, http_like(4096));

void BM_OnionWrap3Hops(benchmark::State& state) {
  tor::OnionCrypt onion;
  for (int i = 0; i < 3; ++i) {
    onion.add_hop(tor::HopKeys::derive(rng().bytes(128)));
  }
  const crypto::Bytes payload = rng().bytes(498);
  for (auto _ : state) {
    benchmark::DoNotOptimize(onion.wrap_forward(payload));
  }
}
BENCHMARK(BM_OnionWrap3Hops);

// With --export, the timed runs leave telemetry off: a case runs for up
// to millions of iterations, and tracing them all wrote a ~2 GB trace.json
// that tools/analyze.py could not load. google-benchmark re-runs each case
// once more, untimed and for at most 16 iterations, when a MemoryManager
// is registered; this one traces that run, under a trace root of its own,
// instead of measuring memory (so --benchmark_format=json reports 0
// allocations for every case).
class TraceUntimedRun final : public benchmark::MemoryManager {
 public:
  void Start() override {
    telemetry::set_enabled(true);
    root_.emplace("bench", "untimed_run", /*mint_root=*/true);
  }
  void Stop(Result& /*result*/) override {
    root_.reset();
    telemetry::set_enabled(false);
  }
  void Stop(Result* result) override { Stop(*result); }

 private:
  std::optional<telemetry::SpanScope> root_;
};

}  // namespace

// bench::Telemetry takes --export like every other bench. google-benchmark
// exits on flags it does not know, so --export and its value are taken out
// of argv before benchmark::Initialize.
int main(int argc, char** argv) {
  const tenet::bench::Telemetry telemetry(argc, argv);
  TraceUntimedRun traced_run;
  if (telemetry.active()) {
    tenet::telemetry::set_enabled(false);
    benchmark::RegisterMemoryManager(&traced_run);
  }
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--export" && i + 1 < argc) {
      ++i;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argv[kept] = nullptr;
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
