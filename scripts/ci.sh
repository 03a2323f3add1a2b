#!/usr/bin/env bash
# CI entry point: tier-1 verify in Debug and Release, plus the smoke-label
# fast pass; the Release configuration then runs the 13 paper programs
# (bench_table*, bench_fig*, bench_ablation_fusion) once each and fails
# on a non-zero exit, never on timing. Mirrors what
# .github/workflows/ci.yml runs; usable locally:
#
#   ./scripts/ci.sh            # both configurations
#   ./scripts/ci.sh Debug      # one configuration
#   ./scripts/ci.sh tsan       # ThreadSanitizer build: the smoke subset
#                              # (guards the serving concurrency) plus
#                              # test_dft_program's EngineZooSweep tests,
#                              # which run every zoo model's kernels,
#                              # pool-split GEMM row loops included
#   ./scripts/ci.sh asan       # AddressSanitizer + UBSan build: the whole
#                              # tier-1 suite (every ctest entry, the
#                              # examples included); any report fails the
#                              # run
#   ./scripts/ci.sh cache      # compilation-cache smoke: the roundtrip
#                              # example twice against one CacheDir (the
#                              # second process must hit), then dnnf-cache
#                              # list/verify over the populated dir
#   ./scripts/ci.sh bench      # benchmark smoke: builds perfbench from the
#                              # tree and runs its seed self-test, which
#                              # runs every workload's correctness gate
#                              # (perfbench/test_seed.py); never gates on
#                              # timing
#   ./scripts/ci.sh serving    # serving smoke: the closed-loop load
#                              # generator briefly (--quick) into
#                              # build-ci-serving/BENCH_serving.json (the
#                              # committed full-window file is left
#                              # alone); fails on crashes or
#                              # the batched-vs-solo bit-identity /
#                              # request-accounting guards, never timing
#   ./scripts/ci.sh forced     # forced-dispatch smoke: the smoke suite
#                              # once per kernel tier
#                              # via the DNNFUSION_FORCE_KERNEL_LEVEL env
#                              # hook (scalar, then avx2) — unsupported
#                              # tiers clamp down, so this runs anywhere
#   ./scripts/ci.sh chaos      # fault-injection sweep: test_chaos and the
#                              # serving resilience tests in Debug and
#                              # under ThreadSanitizer, then the loadgen
#                              # --chaos storm (degraded-mode p99 into
#                              # build-ci-chaos-bench/
#                              # BENCH_serving_chaos.json); fails on any
#                              # abort, deadlock, leak, or untyped error
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
CONFIGS=("${@:-Debug}")
if [ "$#" -eq 0 ]; then
  CONFIGS=(Debug Release)
fi

for CONFIG in "${CONFIGS[@]}"; do
  if [ "$CONFIG" = "tsan" ]; then
    BUILD_DIR="build-ci-tsan"
    echo "=== [tsan] configure ==="
    # Examples explicitly ON (a stale build-ci-tsan cache from before this
    # flag would otherwise keep OFF): they are registered as smoke tests,
    # so the public-API walk-throughs also execute under ThreadSanitizer.
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DDNNFUSION_TSAN=ON -DDNNFUSION_BUILD_BENCH=OFF \
          -DDNNFUSION_BUILD_EXAMPLES=ON
    echo "=== [tsan] build ==="
    cmake --build "$BUILD_DIR" -j "$JOBS"
    echo "=== [tsan] smoke tests under ThreadSanitizer ==="
    ctest --test-dir "$BUILD_DIR" -L smoke --output-on-failure -j "$JOBS"
    echo "=== [tsan] zoo-wide packed-vs-naive sweep under ThreadSanitizer ==="
    "$BUILD_DIR/test_dft_program" --gtest_filter='EngineZooSweep.*'
    continue
  fi
  if [ "$CONFIG" = "asan" ]; then
    BUILD_DIR="build-ci-asan"
    echo "=== [asan] configure ==="
    # The sanitizer flags ride on CMAKE_CXX_FLAGS, so every target — the
    # library, the tests and the examples — is instrumented. UBSan findings
    # abort (-fno-sanitize-recover) instead of only printing.
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DDNNFUSION_BUILD_BENCH=OFF -DDNNFUSION_BUILD_EXAMPLES=ON \
          -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS"
    echo "=== [asan] build ==="
    cmake --build "$BUILD_DIR" -j "$JOBS"
    echo "=== [asan] full tier-1 suite under ASan/UBSan ==="
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
    continue
  fi
  if [ "$CONFIG" = "bench" ]; then
    echo "=== [bench] perfbench build + seed self-test ==="
    # Builds perfbench/ in .bench_build/ (as perfbench/run.py does), then
    # checks seed determinism and runs every workload's correctness gate
    # briefly, traced and untraced. The exit code carries correctness only
    # — no timing is asserted.
    python3 perfbench/test_seed.py
    continue
  fi
  if [ "$CONFIG" = "serving" ]; then
    BUILD_DIR="build-ci-serving"
    echo "=== [serving] configure ==="
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
          -DDNNFUSION_BUILD_TESTS=OFF -DDNNFUSION_BUILD_BENCH=ON \
          -DDNNFUSION_BUILD_EXAMPLES=OFF
    echo "=== [serving] build ==="
    cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_serving_loadgen
    echo "=== [serving] closed-loop load smoke ($BUILD_DIR/BENCH_serving.json) ==="
    # --quick shortens the measurement windows; the exit code carries the
    # correctness guards (batched-vs-solo bit-identity, request accounting,
    # pool integrity after the shedding storm) — never a timing assertion.
    # The JSON stays in the build tree: its short-window numbers must not
    # overwrite the committed full-window BENCH_serving.json.
    "$BUILD_DIR/bench_serving_loadgen" --quick \
        --json "$BUILD_DIR/BENCH_serving.json"
    continue
  fi
  if [ "$CONFIG" = "forced" ]; then
    BUILD_DIR="build-ci-forced"
    echo "=== [forced] configure ==="
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
    echo "=== [forced] build ==="
    cmake --build "$BUILD_DIR" -j "$JOBS"
    # One smoke pass per kernel tier. The env hook forces dispatch for
    # every default-config compile/execute in the suite; avx2 on a host
    # without it runs scalar, so both passes run on any machine.
    for LEVEL in scalar avx2; do
      echo "=== [forced] smoke tests at forced kernel level: $LEVEL ==="
      DNNFUSION_FORCE_KERNEL_LEVEL="$LEVEL" \
        ctest --test-dir "$BUILD_DIR" -L smoke --output-on-failure -j "$JOBS"
    done
    continue
  fi
  if [ "$CONFIG" = "chaos" ]; then
    BUILD_DIR="build-ci-chaos"
    echo "=== [chaos] configure (Debug) ==="
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
          -DDNNFUSION_BUILD_BENCH=OFF -DDNNFUSION_BUILD_EXAMPLES=OFF
    echo "=== [chaos] build ==="
    cmake --build "$BUILD_DIR" -j "$JOBS" --target test_chaos test_serving \
          test_graph_fuzz
    echo "=== [chaos] fault-point sweep + serving resilience (Debug) ==="
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
          -R 'test_chaos|test_serving|test_graph_fuzz'
    TSAN_DIR="build-ci-chaos-tsan"
    echo "=== [chaos] configure (ThreadSanitizer) ==="
    cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DDNNFUSION_TSAN=ON -DDNNFUSION_BUILD_BENCH=OFF \
          -DDNNFUSION_BUILD_EXAMPLES=OFF
    echo "=== [chaos] build (ThreadSanitizer) ==="
    cmake --build "$TSAN_DIR" -j "$JOBS" --target test_chaos test_serving
    echo "=== [chaos] chaos + serving tests under ThreadSanitizer ==="
    ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$JOBS" \
          -R 'test_chaos|test_serving'
    BENCH_DIR="build-ci-chaos-bench"
    echo "=== [chaos] configure (loadgen) ==="
    cmake -B "$BENCH_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
          -DDNNFUSION_BUILD_TESTS=OFF -DDNNFUSION_BUILD_BENCH=ON \
          -DDNNFUSION_BUILD_EXAMPLES=OFF
    echo "=== [chaos] build (loadgen) ==="
    cmake --build "$BENCH_DIR" -j "$JOBS" --target bench_serving_loadgen
    echo "=== [chaos] degraded-mode storm ($BENCH_DIR/BENCH_serving_chaos.json) ==="
    # Exit code carries the guards (typed-or-served accounting under the
    # armed fault, healthy service after disarm) — never a timing bar.
    "$BENCH_DIR/bench_serving_loadgen" --quick --chaos \
        --json "$BENCH_DIR/BENCH_serving_chaos.json"
    continue
  fi
  if [ "$CONFIG" = "cache" ]; then
    BUILD_DIR="build-ci-cache"
    echo "=== [cache] configure ==="
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
          -DDNNFUSION_BUILD_TESTS=OFF -DDNNFUSION_BUILD_BENCH=OFF \
          -DDNNFUSION_BUILD_EXAMPLES=ON
    echo "=== [cache] build ==="
    cmake --build "$BUILD_DIR" -j "$JOBS" \
          --target example_save_load_roundtrip dnnf-cache
    CACHE_DIR="$(mktemp -d)"
    echo "=== [cache] cold process (populates $CACHE_DIR) ==="
    "$BUILD_DIR/example_save_load_roundtrip" --cache-dir "$CACHE_DIR"
    echo "=== [cache] warm process (must hit the cache) ==="
    "$BUILD_DIR/example_save_load_roundtrip" --cache-dir "$CACHE_DIR" \
        --expect-cache-hit
    echo "=== [cache] dnnf-cache inspection over the populated dir ==="
    "$BUILD_DIR/dnnf-cache" list "$CACHE_DIR"
    # Every entry the two processes left behind must verify clean.
    "$BUILD_DIR/dnnf-cache" verify "$CACHE_DIR"
    rm -rf "$CACHE_DIR"
    continue
  fi
  BUILD_DIR="build-ci-${CONFIG,,}"
  echo "=== [$CONFIG] configure ==="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE="$CONFIG"
  echo "=== [$CONFIG] build ==="
  cmake --build "$BUILD_DIR" -j "$JOBS"
  echo "=== [$CONFIG] smoke tests ==="
  ctest --test-dir "$BUILD_DIR" -L smoke --output-on-failure -j "$JOBS"
  echo "=== [$CONFIG] full test suite ==="
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
  if [ "$CONFIG" = "Release" ]; then
    # The paper's tables and figures: each program's exit code carries its
    # own self-checks (outputs agree, no Expected error). Their timings are
    # printed, never asserted, and nothing they print is kept.
    for PROGRAM in "$BUILD_DIR"/bench_table* "$BUILD_DIR"/bench_fig* \
                   "$BUILD_DIR/bench_ablation_fusion"; do
      echo "=== [$CONFIG] paper program $(basename "$PROGRAM") ==="
      "$PROGRAM"
    done
  fi
done

echo "CI passed for: ${CONFIGS[*]}"
