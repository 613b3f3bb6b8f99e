// Checks of the benchmark's own arithmetic (metrics.h): the percentile
// rule, ratios and their bases, the window's throughput, the exact modeled
// split, metric names.
// Exits 1 on the first failed check. run.py runs it before each benchmark.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.h"

namespace {

using namespace perfbench;

int g_checks = 0;

#define CHECK(cond)                                                       \
  do {                                                                    \
    ++g_checks;                                                           \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "perfbench_selftest: %s:%d: CHECK(%s) failed\n", \
                   __FILE__, __LINE__, #cond);                            \
      std::exit(1);                                                       \
    }                                                                     \
  } while (0)

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void percentile_rule() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(percentile(v, 50) == 50);
  CHECK(percentile(v, 99) == 99);
  CHECK(percentile(v, 100) == 100);
  CHECK(median({3, 1, 2}) == 2);

  // Ten samples beyond p99 need 1000 of them; p99.9 needs 10000.
  CHECK(samples_beyond(1000, 99) == 10);
  CHECK(samples_beyond(999, 99) == 9);
  CHECK(!tail_percentile(99).has_value());
  CHECK(tail_percentile(100) == 90.0);
  CHECK(tail_percentile(999) == 90.0);
  CHECK(tail_percentile(1000) == 99.0);
  CHECK(tail_percentile(9999) == 99.0);
  CHECK(tail_percentile(10000) == 99.9);
  for (size_t n = 1; n < 20000; n += 37) {
    const auto p = tail_percentile(n);
    if (p.has_value()) CHECK(samples_beyond(n, *p) >= 10);
  }
}

void ratios_carry_their_base() {
  MetricSet m;
  CHECK(m.add_per_op("x_per_op", Clock::kModeled, "blocks", 30, 4));
  const Metric* x = m.find("x_per_op");
  CHECK(x != nullptr && x->ratio.has_value());
  CHECK(x->ratio->base == "ops" && x->ratio->num == 30 && x->ratio->den == 4);
  CHECK(x->value == 7.5);
  // A ratio over nothing is left out, never reported as 0.
  CHECK(!m.add_ratio("hit_ratio", Clock::kVirtual, "ratio", {0, 0, "finds"}));
  CHECK(m.find("hit_ratio") == nullptr);
  CHECK(throws([&] {
    m.add_ratio("unnamed", Clock::kVirtual, "ratio", {1, 2, ""});
  }));
}

void window_rate_takes_each_ops_fastest_sample() {
  const std::vector<std::vector<double>> walls = {{1, 2, 3}, {2, 1, 1}};
  const Ratio all = window_rate(walls, [](size_t, size_t) { return false; });
  CHECK(all.num == 3 && all.den == 3);
  CHECK(all.base == "s of window wall, per op the fastest of 2 deployments");
  // Traced ops alternate between deployments and are left out.
  const Ratio untraced =
      window_rate(walls, [](size_t d, size_t i) { return (i + d) % 2 == 1; });
  CHECK(untraced.num == 3 && untraced.den == 1 + 1 + 3);
  // An op with no untraced sample is not counted.
  const Ratio one =
      window_rate({{1, 2, 3}}, [](size_t, size_t i) { return i % 2 == 1; });
  CHECK(one.num == 2 && one.den == 4 && one.value() == 0.5);
}

void modeled_split_is_exact() {
  using tenet::sgx::CostModel;
  using tenet::sgx::CostScope;
  using tenet::sgx::UserInstr;
  namespace work = tenet::crypto::work;
  uint64_t s = 12345;
  const auto next = [&] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return (s >> 33) % 1000;
  };
  for (int trial = 0; trial < 200; ++trial) {
    CostModel model;
    const Counts before = read_counts(model);
    model.charge_user(UserInstr::kEEnter, next());
    model.charge_user(UserInstr::kEReport, next() % 3);
    model.charge_normal(next());
    model.charge_boundary_bytes(next() * 7);
    model.charge_context_switch();
    model.charge_page_zero(next() % 4);
    model.charge_ring_slot_write();
    {
      CostScope scope(model);
      work::charge_aes_blocks(next());
      work::charge_aes_key_schedule(next() % 5);
      work::charge_sha256_blocks(next());
      work::charge_limb_muladds(next() * 100);
      work::charge_bytes_moved(next());
      work::charge_chacha_blocks(next() % 3);
      work::charge_alu(next());
    }
    const Counts c = minus(read_counts(model), before);
    const NormalSplit n = split_normal(c, model.constants());
    CHECK(n.crypto + n.app + n.boundary == model.normal_instructions());
    const ModeledSplit split = split_modeled(c, model.constants());
    CHECK(split.total() == split.sgx + split.crypto + split.app + split.boundary);
    CHECK(split.sgx == static_cast<double>(model.sgx_user_instructions() *
                                           model.constants().cycles_per_sgx_instr));
    CHECK(std::fabs(split.total() - model.cycles()) <= 1e-9 * model.cycles());
    CHECK(c.ereport == model.user_count(UserInstr::kEReport));
  }
  // Metered work alone (a standalone model) has no SGX or boundary share.
  CostModel native;
  {
    CostScope scope(native);
    work::charge_aes_blocks(10);
  }
  const ModeledSplit n = split_modeled(read_counts(native), native.constants());
  CHECK(n.sgx == 0 && n.boundary == 0 && n.app == 0);
  CHECK(n.total() == native.cycles());
}

void metric_names() {
  CHECK(valid_metric_name("netsim.session_cache.hit_ratio"));
  CHECK(valid_metric_name("mbox.send_wall_us_p50.b4096"));
  CHECK(valid_metric_name("vclock_p99_ms"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name(".hidden"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("a/b"));
  CHECK(!valid_metric_name("quote\""));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_metric_name(std::string(64, 'a')));

  MetricSet m;
  CHECK(throws([&] { m.add("bad name", Clock::kWall, "s", 1); }));
  m.add("setup_s", Clock::kWall, "s", 1);
  CHECK(throws([&] { m.add("setup_s", Clock::kWall, "s", 2); }));
  // Only the cost model produces cycles; a wall number never carries them.
  CHECK(throws([&] { m.add("cycles_per_byte", Clock::kWall, "x", 1); }));
  CHECK(throws([&] { m.add("per_byte", Clock::kWall, "cycles", 1); }));
  m.add("modeled_cycles_per_op", Clock::kModeled, "cycles", 1);
}

}  // namespace

int main() {
  percentile_rule();
  ratios_carry_their_base();
  window_rate_takes_each_ops_fastest_sample();
  modeled_split_is_exact();
  metric_names();
  std::printf("perfbench_selftest: %d checks passed\n", g_checks);
  return 0;
}
