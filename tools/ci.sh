#!/usr/bin/env bash
# CI, cheapest checks first: static analysis (invariant linter + clang-tidy
# baseline), a compile-only clang -Wthread-safety pass over the annotated
# mutex layer, an AddressSanitizer+UBSan pass over the full ctest suite, the
# standard tier-1 configure/build/ctest cycle, then a ThreadSanitizer pass
# over the concurrency-sensitive tests (the persistent thread pool behind
# ParallelFor, the lazily initialized Kronecker eigenbasis variants, and the
# batched release engine built on both). Tier-1 ends with a smoke run of the
# benchmark (perfbench/) on the dense and the Kron engine. Run from anywhere; operates on the repository that
# contains this script.
#
#   tools/ci.sh                 # full cycle: lint -> tsafety -> asan -> tier-1 (+ perfbench smoke) -> tsan
#   SKIP_LINT=1 tools/ci.sh     # skip static analysis
#   SKIP_TSAFETY=1 tools/ci.sh  # skip the clang -Wthread-safety lane
#   SKIP_ASAN=1 tools/ci.sh     # skip the ASan/UBSan lane (e.g. no libasan)
#   SKIP_TSAN=1 tools/ci.sh     # skip the TSan lane (e.g. no libtsan)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${SKIP_LINT:-0}" == "1" ]]; then
  echo "==== lint: skipped (SKIP_LINT=1) ===="
else
  echo "==== lint: invariant linter + clang-tidy baseline (tools/lint.sh) ===="
  # Seconds, no build needed — a durability-seam bypass, an unseeded RNG
  # draw or a bare (void)status fails the run before anything compiles.
  tools/lint.sh
fi

# CMakePresets.json needs CMake >= 3.21; the project itself builds from
# 3.16, so fall back to a plain configure when presets are unsupported.
if cmake --list-presets >/dev/null 2>&1; then
  HAVE_PRESETS=1
else
  HAVE_PRESETS=0
fi

# Every test binary plus the CLI (cli_api_test drives the real binary) —
# what the sanitizer lane builds instead of the full bench/example set.
TEST_TARGETS=(dpmm_cli)
for test_src in tests/*_test.cc; do
  TEST_TARGETS+=("$(basename "${test_src%.cc}")")
done

if [[ "${SKIP_TSAFETY:-0}" == "1" ]]; then
  echo "==== tsafety: skipped (SKIP_TSAFETY=1) ===="
elif ! command -v clang++ >/dev/null 2>&1; then
  # Mirrors the clang-tidy self-skip in tools/lint.sh: the annotations
  # compile to nothing on GCC, and the always-on invariant rules
  # (raw-mutex, guarded-by, lock-order) keep gating above.
  echo "==== tsafety: skipped (clang++ not installed; thread-safety analysis needs clang) ===="
else
  echo "==== tsafety: clang -Wthread-safety over the annotated tree (build-tsafety) ===="
  # Compile-only: -Wthread-safety rejects unguarded access to any
  # DPMM_GUARDED_BY member, and -Wthread-safety-beta adds the
  # acquired_before/after lock-order checks. -Werror is already on by
  # default (DPMM_WERROR), so every diagnostic is a build break.
  cmake -B build-tsafety -S . \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_CXX_FLAGS="-Wthread-safety -Wthread-safety-beta"
  cmake --build build-tsafety -j --target dpmm "${TEST_TARGETS[@]}"
fi

if [[ "${SKIP_ASAN:-0}" == "1" ]]; then
  echo "==== asan: skipped (SKIP_ASAN=1) ===="
else
  echo "==== asan: full ctest suite under Address+UB Sanitizer (preset: asan) ===="
  # The asan preset builds RelWithDebInfo *without* NDEBUG, so DPMM_DCHECK
  # bounds/shape checks in the linalg kernels are live exactly where the
  # sanitizers run. -fno-sanitize-recover=all turns any UB into an abort.
  if [[ "${HAVE_PRESETS}" == "1" ]]; then
    cmake --preset asan
  else
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  fi
  cmake --build build-asan -j --target "${TEST_TARGETS[@]}"
  (cd build-asan && \
   ASAN_OPTIONS="abort_on_error=1" UBSAN_OPTIONS="print_stacktrace=1" \
   ctest --output-on-failure -j4)
fi

echo "==== tier-1: configure + build + ctest (preset: default) ===="
if [[ "${HAVE_PRESETS}" == "1" ]]; then
  cmake --preset default
else
  cmake -B build -S .
fi
cmake --build build -j

echo "==== solver: Program-1 convergence regressions (ctest -L solver) ===="
# The golden-gap suite runs first: a convergence regression in the dual
# solver fails tier-1 within seconds, before the full suite spends its
# time on unrelated suites.
ctest --test-dir build --output-on-failure -L solver

echo "==== serve: store-and-serve subsystem (ctest -L serve) ===="
# Artifact round-trips, stores, budget ledger, answer-engine exactness.
ctest --test-dir build --output-on-failure -L serve

echo "==== durability: crash matrix + multi-process races (ctest -L durability) ===="
# WAL framing/recovery, the fault-injection crash matrix over the budget
# ledger (a simulated power cut at every fs-operation boundary), file-lock
# arbitration, and the fork-based two-writer races.
ctest --test-dir build --output-on-failure -L durability

echo "==== store: sharded storage engine (ctest -L store) ===="
# Consistent-hash placement, flat-v1 migration (byte-identical after
# compaction), manifest supersession/tombstones at the 1000-release scale,
# the bounded LRU caches, and the compaction/put crash matrices.
ctest --test-dir build --output-on-failure -L store

echo "==== obs: metrics registry + perf contexts + trace spans (ctest -L obs) ===="
# Counter/gauge/histogram correctness (exact quantiles on bucket
# boundaries), PerfContext nesting and thread isolation, and trace-JSON
# well-formedness. The same binary reruns under TSan below.
ctest --test-dir build --output-on-failure -L obs

echo "==== api: unified strategy/mechanism API (ctest -L api) ===="
# LinearStrategy interface, Design() engine selection, Mechanism bit-identity
# vs a hand-written Prop. 3 reference, the dense artifact kind, and the
# CLI's dense design --save -> release --store -> serve loop.
ctest --test-dir build --output-on-failure -L api

ctest --test-dir build --output-on-failure -j4

echo "==== perfbench: benchmark smoke run (adhoc + serve, 1 s, untraced + traced) ===="
# The benchmark builds from this checkout and drives the public API
# with its own correctness checks (store re-read digests, ledger totals,
# error ratios, served values and error bars); run.py exits nonzero when
# the build, the run or a check fails, so an API change that breaks the
# benchmark fails CI here. adhoc runs the dense engine; serve runs the Kron
# engine, whose cold roots are width-1 block-PCG solves.
PERF_RESULTS="$(mktemp -d)"
trap 'rm -rf "${PERF_RESULTS}"' EXIT
for workload in adhoc serve; do
  for trace in 0 1; do
    python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 1 \
      --trace "${trace}" --results "${PERF_RESULTS}/trace${trace}"
  done
done

if [[ "${SKIP_TSAN:-0}" == "1" ]]; then
  echo "==== tsan: skipped (SKIP_TSAN=1) ===="
  exit 0
fi

echo "==== tsan: thread pool + kron batching + serve engine under ThreadSanitizer ===="
# serve_test rides along: the answer engine's root cache serves concurrent
# readers that share one strategy (lazy eigenbasis variants + pool) — since
# the engine unification, on both the kron store and a dense-engine store
# (racing the dense strategy's lazy Gram factorization call_once).
# durability_test rides along too: its fork-based multi-process races and
# flock arbitration must stay clean under TSan (the binary is
# single-threaded by design, so TSan's fork restriction never triggers).
# store_test covers the store mutexes guarding the bounded LRU caches:
# concurrent readers under eviction churn (3 keys cycling through 2 slots
# from 4 threads) must never surface a torn or wrong artifact.
# metrics_test covers the metrics registry and trace recorder mutexes: four
# threads registering instruments while recording, and concurrent TraceSpan
# appends into the shared event buffer.
# mutex_test covers the dpmm::Mutex wrapper itself (util/mutex.h): the
# exclusive/shared paths, the relock staircase, and CondVar hand-offs under
# 4-thread contention.
TSAN_TESTS=(threading_test util_test linalg_kron_test kron_design_test serve_test durability_test store_test metrics_test mutex_test)
if [[ "${HAVE_PRESETS}" == "1" ]]; then
  cmake --preset tsan
else
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
fi
cmake --build build-tsan -j --target "${TSAN_TESTS[@]}"
# DPMM_THREADS=4 forces real pool workers even on single-core CI machines;
# the threading_serial_test registration overrides it back to 1 for the
# serial-path suite.
(cd build-tsan && \
 DPMM_THREADS=4 TSAN_OPTIONS="halt_on_error=1" \
 ctest --output-on-failure -R '^(threading|util|linalg_kron|kron_design|serve|durability|store|metrics|mutex)')

echo "==== ci.sh: all green ===="
