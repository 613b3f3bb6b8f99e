#!/usr/bin/env bash
# CI entry point. Modes:
#
#   scripts/ci.sh              # release build + full ctest
#   scripts/ci.sh asan         # ASan+UBSan build + full ctest
#   scripts/ci.sh ubsan        # optimized UBSan build + full ctest
#   scripts/ci.sh debug
#   scripts/ci.sh notlm        # release with -DTENET_TELEMETRY=OFF: proves
#                              # the tree builds and passes with telemetry
#                              # (spans, counters, scrapes, event log,
#                              # health model) compiled out, and asserts via
#                              # nm that no event-log/health symbols survive
#   scripts/ci.sh quick [preset]  # tier-1 tests only (fast PR gate);
#                                 # preset defaults to release (asan etc.)
#   scripts/ci.sh fault        # release build + fault-injection/recovery slice
#   scripts/ci.sh lint         # counter-owner check (no sgx.* counter the
#                              # CostModel/Epc write is bumped elsewhere) +
#                              # one-AES check (no _mm_aesenc or kTe* table
#                              # in src/ outside crypto/aes.cpp) +
#                              # one-AMM check (no _mm512_madd52 in src/
#                              # outside crypto/bignum_ifma.cpp) +
#                              # versioned-MEE check (no mee_.seal in src/
#                              # with vaddr as the sequence) +
#                              # one-record-path check (no batched record
#                              # API name in src/, bench/ or tests/) +
#                              # one-fault-API check (no Simulator cut/heal/
#                              # loss setter name outside FaultPlan) +
#                              # security lint gate (DESIGN.md §15): static
#                              # taint pass over the tree (src/ findings are
#                              # hard failures) + dynamic pass driving the
#                              # instrumented boundary fuzzer (zero taint
#                              # hits on the clean build, AND the
#                              # --inject-leak positive control must fire)
#   scripts/ci.sh fuzz-smoke   # ~30s boundary-fuzz campaign on the fast PR
#                              # gate: hostile args against every ecall and
#                              # ocall surface, deterministic replay check,
#                              # in-tool coverage assertion. BF_SEED /
#                              # BF_ITERS / BF_CORPUS_DIR override the
#                              # defaults (nightly runs the long leg)
#   scripts/ci.sh bench-smoke  # release build, bench regression gates
#                              # (compare_bench.py --check for the PR-1,
#                              # PR-3 through PR-8 and PR-10 baselines;
#                              # failures accumulate and every gate's
#                              # comparison table lands in the step summary)
#                              # + perfbench correctness smoke (one short
#                              # run per workload, output checks only)
#                              # + telemetry smoke + bench_history.jsonl
#                              # collection (trend summary in step summary)
#
# Honors CC/CXX from the environment (the CI matrix sets gcc/clang) and
# uses ccache transparently when installed.
set -euo pipefail

mode="${1:-release}"
repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

extra_cmake_args=()
if command -v ccache >/dev/null 2>&1; then
  extra_cmake_args+=("-DCMAKE_CXX_COMPILER_LAUNCHER=ccache")
fi

configure_build() {
  local preset="$1"
  cmake --preset "$preset" "${extra_cmake_args[@]}"
  cmake --build --preset "$preset" -j "$(nproc)"
}

case "$mode" in
  release|asan|debug|ubsan)
    configure_build "$mode"
    ctest --preset "$mode"
    ;;
  notlm)
    configure_build notlm
    ctest --preset notlm
    # The telemetry-off build must actually compile observability out, not
    # just disable it: no structured-event-log or health-model machinery
    # may survive into the archive (DESIGN.md §16). The macros compile to
    # ((void)0) under -DTENET_TELEMETRY=OFF, so any surviving symbol means
    # a call site bypassed the TENET_EVENT guard.
    if nm -C build-notlm/src/telemetry/libtenet_telemetry.a 2>/dev/null \
        | grep -E 'EventLog::emit|HealthModel::evaluate|event_log\(\)'; then
      echo "notlm build still contains event-log/health symbols" >&2
      exit 1
    fi
    echo "notlm symbol check ok: events/health compiled out"
    ;;
  quick)
    preset="${2:-release}"
    configure_build "$preset"
    ctest --test-dir "build-$preset" -L tier1 --output-on-failure -j "$(nproc)"
    ;;
  fault)
    # The chaos slice: simulator fault plans, enclave restart, channel
    # recovery, and the per-app crash drills.
    configure_build release
    ctest --test-dir build-release -L fault --output-on-failure -j "$(nproc)"
    ;;
  lint)
    # One writer per SGX event (DESIGN.md §8): the counters the CostModel
    # and the Epc tally are bumped only inside those two, so no call site
    # can count an event without charging it, or charge it twice.
    owned='sgx\.(eenter|eexit|eresume|ereport|egetkey|eaug|eadd_pages'
    owned+='|boundary_bytes|switchless\.(hits|fallbacks_full|fallbacks_asleep'
    owned+='|wakeups)|epc\.(ewb|eldu))"'
    if grep -rnE "TENET_COUNT\([[:space:]]*\"$owned" src \
        | grep -vE '^src/sgx/(cost_model|epc)\.cpp:'; then
      echo "lint: the sgx.* counters above are written by CostModel or Epc;" \
        "charge the event there instead of counting it here" >&2
      exit 1
    fi
    # One AES (DESIGN.md §3.1): Aes128 is the only place AES runs, so every
    # caller gets the same AES-NI dispatch and the same canonical charge,
    # and no key-indexed T-table comes back.
    if grep -rnE '_mm_aesenc|\bkTe[0-9]' src \
        | grep -v '^src/crypto/aes\.cpp:'; then
      echo "lint: AES runs only in src/crypto/aes.cpp;" \
        "call Aes128::encrypt_block or Aes128::ctr_xor instead" >&2
      exit 1
    fi
    # One Montgomery vector kernel (DESIGN.md §3.1): the IFMA multiply-adds
    # live only in the radix-52 AMM, so every modexp gets the same kernel
    # and the same canonical charge from its caller.
    if grep -rn '_mm512_madd52' src \
        | grep -v '^src/crypto/bignum_ifma\.cpp:'; then
      echo "lint: IFMA multiply-adds run only in src/crypto/bignum_ifma.cpp;" \
        "call ifma::amm instead" >&2
      exit 1
    fi
    # Versioned MEE (DESIGN.md §7): a page seal's sequence number is the
    # page's trusted version. Sealing with the vaddr as the sequence gives
    # every content of a page the same keystream, and lets an old
    # ciphertext replay. (-z: the call may wrap across lines.)
    if grep -rlPz 'mee_\.seal\(\s*[^,;]*,\s*vaddr\s*[,)]' src; then
      echo "lint: the files above seal an EPC page with its vaddr as the" \
        "sequence; pass the page's version and bind the vaddr as AAD" >&2
      exit 1
    fi
    # One record path (DESIGN.md §13): seal_into/open_in_place are the
    # record layer at every level, and the copying seal/open wrap them. A
    # second, batched path duplicated the replay-window and direction
    # checks and charged different MAC work; its names stay out.
    if grep -rnE '\b(seal_batch|open_batch|verify_batch|decrypt_batch|ctr_xor_batch|hmac_batch)\b' \
        src bench tests; then
      echo "lint: the batched record API is gone; seal with seal_into and" \
        "open with open_in_place, one record per call" >&2
      exit 1
    fi
    # One fault API (DESIGN.md §9): FaultPlan injects every network fault.
    # The Simulator's own cut/heal/loss setters drew from the DRBG at a
    # different point and bypassed the plan's counters; their names stay
    # out.
    if grep -rnE '\b(cut_link|heal_link|set_loss_rate)\b|\blink_up\(' \
        src tests bench tools examples; then
      echo "lint: the Simulator has one fault API; cut a link with" \
        "fault_plan().set_link(a, b, {.loss = 1}) and heal it with" \
        "fault_plan().set_link(a, b, {})" >&2
      exit 1
    fi
    # Any key material reaching an ocall buffer, telemetry label, or trace
    # export in src/ fails the build; tests/, bench/ and tools/ fixtures
    # warn (some leak on purpose as positive controls). The dynamic pass
    # is only trusted armed: it must track keys, scan payloads, and catch
    # the deliberately leaky build.
    configure_build release
    python3 tools/taint_lint.py --static --dynamic \
      --fuzz-bin build-release/tools/boundary_fuzz \
      | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
    ;;
  fuzz-smoke)
    # Deterministic hostile-args campaign (tools/boundary_fuzz): every
    # registered ecall fn and ocall code, replay-prefix byte-identity, and
    # the coverage ledger asserted in-tool. Replays any corpus failures
    # first; a finding prints a one-command repro line and fails the job.
    configure_build release
    corpus="${BF_CORPUS_DIR:-build-release/fuzz-corpus}"
    mkdir -p "$corpus"
    build-release/tools/boundary_fuzz \
      --seed "${BF_SEED:-1}" --iters "${BF_ITERS:-50000}" \
      --corpus-dir "$corpus" \
      | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
    ;;
  bench-smoke)
    configure_build release
    # Regression gates. Each gate writes a Markdown comparison table that
    # lands in the GitHub step summary, failures are accumulated so one
    # regressed baseline doesn't hide another, and the recap at the end
    # names every failed gate instead of a bare non-zero exit.
    mkdir -p build-release/bench-gates
    failed_gates=()
    run_gate() {
      local name="$1"; shift
      if ! python3 bench/compare_bench.py "$@" \
          --markdown-out "build-release/bench-gates/${name}.md"; then
        failed_gates+=("$name")
      fi
      if [ -f "build-release/bench-gates/${name}.md" ]; then
        cat "build-release/bench-gates/${name}.md" \
          >> "${GITHUB_STEP_SUMMARY:-/dev/null}"
      fi
    }
    # Perf gate: fail on a >10% regression vs the committed PR-1 baseline.
    run_gate pr1 \
      --bench-binary build-release/bench/bench_pr1_fastpath \
      --check --max-regress 10
    # Recovery gate (PR 3): the gated metrics are simulator-deterministic,
    # so any drift is a real behaviour change, not machine noise.
    run_gate pr3 \
      --bench-binary build-release/bench/bench_recovery \
      --baseline BENCH_pr3.json --key pr3 --check --max-regress 5
    # Switchless gate (PR 4): instruction-model-deterministic transition
    # counts; also fails if the bench output drops any baseline metric.
    run_gate pr4 \
      --bench-binary build-release/bench/bench_table2_packet_io \
      --bench-args=--json \
      --baseline BENCH_pr4.json --key pr4 --check --max-regress 2
    # Tracing gate (PR 5): span/scrape counts and the exact-cost invariant
    # are simulator-deterministic; trace_overhead_over_cap_pct must stay
    # exactly 0 (tracing-on wall-clock overhead <= 5%).
    run_gate pr5 \
      --bench-binary build-release/bench/bench_trace_overhead \
      --baseline BENCH_pr5.json --key pr5 --check --max-regress 5
    # Scale gate (PR 6): the event counts / route counts / engine
    # equivalence bit are simulator-deterministic; throughput, speedup and
    # RSS are machine-dependent, so the budget is loose (the bench already
    # takes best-of-two timed runs per engine to shed scheduler noise).
    run_gate pr6 \
      --bench-binary build-release/bench/bench_scale \
      --bench-args=--json \
      --baseline BENCH_pr6.json --key pr6 --check --max-regress 35
    # Dataplane gate (PR 7): byte-equality bits, batch width, checksums and
    # session-cache/EPC counts are all deterministic — including the
    # speedup_floor_met bit (zero-copy seal_into on AES-NI >= 3x the legacy
    # seal+copy on the portable AES); raw records/sec stays informational.
    run_gate pr7 \
      --bench-binary build-release/bench/bench_dataplane \
      --bench-args=--json \
      --baseline BENCH_pr7.json --key pr7 --check --max-regress 5
    # Control-plane gate (PR 8): the sweep and the chaos drill run on the
    # virtual clock over the modeled cost meter, so every gated metric —
    # scale factors, chaos loss/replay bits, the fold checksum, heal
    # latency — is deterministic. scale_x8 at -5% still clears the bench's
    # own >= 6x floor (scale_floor_met is also gated, exact).
    run_gate pr8 \
      --bench-binary build-release/bench/bench_controlplane \
      --bench-args=--json \
      --baseline BENCH_pr8.json --key pr8 --check --max-regress 5
    # Observability gate (PR 10): event/scrape/eval counts, the replay and
    # ring-consistency bits, and chaos_lost_admissions are deterministic;
    # obs_overhead_over_cap_pct must stay exactly 0 (full observability —
    # events + health evaluation — costs <= 5% wall clock, min-of-reps).
    run_gate pr10 \
      --bench-binary build-release/bench/bench_observability \
      --bench-args=--json \
      --baseline BENCH_pr10.json --key pr10 --check --max-regress 5
    # End-to-end benchmark correctness smoke: one short run of each
    # perfbench workload must exit 0 with its output checks passing (the
    # last line is the result JSON, "correct": true). Only correctness is
    # gated here; its wall-clock figures are not compared.
    for workload in mbox-relay tor-circuits control-failover session-churn; do
      gate="perfbench-${workload}"
      out="build-release/bench-gates/${gate}.out"
      if ! python3 perfbench/run.py --workload "$workload" --seed 2015 \
          --seconds 1 > "$out"; then
        failed_gates+=("$gate")
      elif [[ "$(tail -n 1 "$out")" != *'"correct": true'* ]]; then
        failed_gates+=("$gate")
      fi
    done
    if [ "${#failed_gates[@]}" -gt 0 ]; then
      echo "bench gates FAILED: ${failed_gates[*]}" >&2
      echo "(comparison tables above / in the step summary)" >&2
      exit 1
    fi
    echo "all bench gates passed (pr1 pr3 pr4 pr5 pr6 pr7 pr8 pr10 perfbench)"
    # Telemetry smoke: the attestation bench must produce a valid Chrome
    # trace whose counters cross-check against the cost model (the bench
    # exits non-zero on mismatch), and the trace must parse as JSON.
    mkdir -p build-release/telemetry
    build-release/bench/bench_table1_attestation \
      --trace-out build-release/telemetry/table1_trace.json \
      --metrics-out build-release/telemetry/table1_metrics.json
    python3 - <<'EOF'
import json
trace = json.load(open("build-release/telemetry/table1_trace.json"))
assert trace["traceEvents"], "empty trace"
json.load(open("build-release/telemetry/table1_metrics.json"))
print(f"telemetry smoke ok: {len(trace['traceEvents'])} trace events")
EOF
    # Bench history: capture this run's JSON outputs and append them to the
    # JSONL ledger (uploaded as a CI artifact for trend analysis).
    mkdir -p build-release/bench-out
    build-release/bench/bench_pr1_fastpath \
      > build-release/bench-out/bench_pr1_fastpath.json
    build-release/bench/bench_recovery \
      > build-release/bench-out/bench_recovery.json
    build-release/bench/bench_table2_packet_io --json \
      > build-release/bench-out/bench_table2_packet_io.json
    build-release/bench/bench_trace_overhead \
      > build-release/bench-out/bench_trace_overhead.json
    build-release/bench/bench_scale --json \
      > build-release/bench-out/bench_scale.json
    build-release/bench/bench_dataplane --json \
      > build-release/bench-out/bench_dataplane.json
    build-release/bench/bench_controlplane --json \
      > build-release/bench-out/bench_controlplane.json
    build-release/bench/bench_observability --json \
      > build-release/bench-out/bench_observability.json
    python3 scripts/collect_bench_history.py \
      --history build-release/bench-out/bench_history.jsonl \
      --label ci-bench-smoke --summarize \
      build-release/bench-out/bench_pr1_fastpath.json \
      build-release/bench-out/bench_recovery.json \
      build-release/bench-out/bench_table2_packet_io.json \
      build-release/bench-out/bench_trace_overhead.json \
      build-release/bench-out/bench_scale.json \
      build-release/bench-out/bench_dataplane.json \
      build-release/bench-out/bench_controlplane.json \
      build-release/bench-out/bench_observability.json \
      | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
    ;;
  *)
    echo "unknown mode: $mode (expected release|asan|ubsan|debug|notlm|quick|fault|lint|fuzz-smoke|bench-smoke)" >&2
    exit 2
    ;;
esac
