#!/usr/bin/env bash
# CI entry point. Modes:
#
#   scripts/ci.sh              # release build (warnings are errors) +
#                              # full ctest
#   scripts/ci.sh asan         # ASan+UBSan build (warnings are errors) +
#                              # full ctest
#   scripts/ci.sh ubsan        # optimized UBSan build + full ctest
#   scripts/ci.sh debug
#   scripts/ci.sh notlm        # release with -DTENET_TELEMETRY=OFF
#                              # (warnings are errors): proves
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
#                              # one-cpuid-check rule (x86 intrinsic headers
#                              # and target attributes in src/ only in the
#                              # three runtime-dispatched kernel files) +
#                              # versioned-MEE check (no mee_.seal in src/
#                              # with vaddr as the sequence) +
#                              # one-record-path check (no batched record
#                              # API name in src/, bench/ or tests/) +
#                              # one-fault-API check (no Simulator cut/heal/
#                              # loss setter name outside FaultPlan) +
#                              # one-bench-gate check (no retired baseline,
#                              # comparer or summary-tool name) +
#                              # one-hash-table check (no U64Map,
#                              # erase_slot or netsim/flat_hash.h in src/) +
#                              # one-export-bundle check (no retired
#                              # artifact flag; fopen in src/telemetry/ only
#                              # in the bundle writer) +
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
#   scripts/ci.sh bench-smoke  # release build; runs each gated bench,
#                              # which checks its own pinned values and
#                              # in-run thresholds and exits 1 naming any
#                              # miss (failures accumulate; misses land in
#                              # the step summary) + perfbench correctness
#                              # smoke (one short run per workload, output
#                              # checks only) + export-bundle smoke
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

# The release, asan and notlm builds are warning-free; any new warning
# fails those jobs.
case "$mode" in
  release|asan|notlm)
    extra_cmake_args+=("-DCMAKE_COMPILE_WARNING_AS_ERROR=ON")
    ;;
esac

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
    # One cpuid check per vector kernel (DESIGN.md §3.1): x86 intrinsic
    # headers and per-function or per-file target attributes appear only
    # in the three runtime-dispatched kernel files, so no vector code runs
    # in src/ without its CPU-feature test.
    if grep -rnE '#[[:space:]]*include[[:space:]]*<[a-z0-9_]*intrin\.h>|__attribute__[[:space:]]*\(\([^)]*target(__)?[[:space:]]*\(|#[[:space:]]*pragma[[:space:]]+GCC[[:space:]]+target' src \
        | grep -vE '^src/crypto/(aes|sha256|bignum_ifma)\.cpp:'; then
      echo "lint: x86 intrinsics and target attributes belong in the" \
        "runtime-dispatched kernels (crypto/aes.cpp, crypto/sha256.cpp," \
        "crypto/bignum_ifma.cpp); call one of those instead" >&2
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
    # Deferred MEE (DESIGN.md §7): a page is sealed only when the host
    # observes it, so the MEE seal runs only in Epc::materialize, never on
    # the add, write, EWB or ELDU path. A line at column 0 with a '('
    # starts a function definition in src/.
    if grep -rl 'mee_\.seal(' src | xargs -r awk '
        FNR == 1 { fn = "" }
        /^[^ \t#\/}].*\(/ { fn = $0 }
        /mee_\.seal\(/ && fn !~ /Epc::materialize\(/ {
          print FILENAME ":" FNR ": " $0; bad = 1
        }
        END { exit !bad }'; then
      echo "lint: the lines above seal an EPC page outside" \
        "Epc::materialize; defer the seal until the page is observed" >&2
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
    # One bench gate: each bench checks its own pinned values and
    # thresholds. The per-PR JSON baselines, their comparer, the history
    # ledger and the nightly summary re-checkers wrote the same rules a
    # second and third time; their names stay out. (The bracketed letters
    # keep this rule from matching itself.)
    if grep -rnE 'compare_benc[h]|BENCH_p[r]|collect_bench_histor[y]|_summar[y]\.py|bench_pr1_fastpat[h]' \
        bench scripts tests tools .github; then
      echo "lint: each bench gates itself; pin the value or threshold in" \
        "the bench with bench::Gate instead" >&2
      exit 1
    fi
    # One hash table (DESIGN.md §12): crypto::FlatMap is the only
    # open-addressing table. The netsim map and the EPC's private probing
    # and backward-shift erase it replaced stay out.
    if grep -rnE '\bU64Map\b|\berase_slot\b|netsim/flat_hash\.h' src; then
      echo "lint: keyed hot state lives in crypto::FlatMap" \
        "(src/crypto/flat_map.h); use it instead of a second table" >&2
      exit 1
    fi
    # One export bundle (DESIGN.md §8): a run's artifacts leave through
    # --export DIR and telemetry::write_bundle, the one place that opens
    # files in src/telemetry/. The seven per-artifact flags it replaced
    # stay out.
    if grep -rnE -- '--(trace|metrics|events|scrapes|health)-out\b|--scrape-out-(jsonl|prom)\b' \
        bench scripts .github tests README.md DESIGN.md EXPERIMENTS.md; then
      echo "lint: benches take one artifact flag; write the run's bundle" \
        "with --export DIR and read it with tools/analyze.py DIR" >&2
      exit 1
    fi
    if grep -rn 'fopen(' src/telemetry | grep -v '^src/telemetry/export\.cpp:'; then
      echo "lint: telemetry files are written only by write_bundle in" \
        "src/telemetry/export.cpp; add the artifact to the bundle" >&2
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
    # Each gated bench enforces its own rules: its deterministic values are
    # pinned exactly next to the code that computes them, and its in-run
    # wall ratios (overhead caps, speedup floors) are held to fixed
    # thresholds. A bench exits 1 naming every value that misses; failures
    # accumulate so one bench does not hide another. (bench_recovery and
    # bench_trace_overhead always print JSON and ignore --json.)
    mkdir -p build-release/bench-out
    failed=()
    for bench in bench_recovery bench_table2_packet_io bench_trace_overhead \
        bench_scale bench_dataplane bench_controlplane bench_observability; do
      if ! "build-release/bench/$bench" --json \
          > "build-release/bench-out/$bench.json" \
          2> "build-release/bench-out/$bench.err"; then
        failed+=("$bench")
        tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}" >&2 \
          < "build-release/bench-out/$bench.err"
      fi
    done
    # End-to-end benchmark correctness smoke: one short run of each
    # perfbench workload must exit 0 with its output checks passing (the
    # last line is the result JSON, "correct": true). Only correctness is
    # gated here; its wall-clock figures are not compared.
    for workload in mbox-relay tor-circuits control-failover session-churn; do
      out="build-release/bench-out/perfbench-${workload}.out"
      if ! python3 perfbench/run.py --workload "$workload" --seed 2015 \
          --seconds 1 > "$out"; then
        failed+=("perfbench-${workload}")
      elif [[ "$(tail -n 1 "$out")" != *'"correct": true'* ]]; then
        failed+=("perfbench-${workload}")
      fi
    done
    if [ "${#failed[@]}" -gt 0 ]; then
      echo "bench gates FAILED: ${failed[*]}" >&2
      exit 1
    fi
    echo "all bench gates passed"
    # Export-bundle smoke: the attestation bench's bundle must list files
    # that all parse and a trace that is not empty (analyze.py exits 1
    # otherwise); the bench itself exits 1 if the exported counters
    # disagree with the cost model.
    rm -rf build-release/telemetry/table1
    build-release/bench/bench_table1_attestation \
      --export build-release/telemetry/table1 > /dev/null
    python3 tools/analyze.py build-release/telemetry/table1
    ;;
  *)
    echo "unknown mode: $mode (expected release|asan|ubsan|debug|notlm|quick|fault|lint|fuzz-smoke|bench-smoke)" >&2
    exit 2
    ;;
esac
