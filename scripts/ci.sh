#!/usr/bin/env bash
# CI driver: builds and tests the repo in tiers, fastest feedback first.
#
#   scripts/ci.sh            # default build: unit lane, then everything
#   scripts/ci.sh unit       # default build: unit lane only (pre-commit)
#   scripts/ci.sh full       # default build: all labels
#   scripts/ci.sh nosimd     # RELGRAPH_SIMD=OFF build: full suite on the
#                            # portable scalar kernels (bits must match)
#   scripts/ci.sh asan       # ASan+UBSan preset over the full suite
#   scripts/ci.sh tsan       # TSan preset over the concurrency-heavy tests
#   scripts/ci.sh chaos      # fault-injection chaos tests under ASan,
#                            # then under TSan (serving must stay
#                            # crash-free and race-free while faults fire)
#   scripts/ci.sh all        # default full + nosimd + asan + tsan + chaos
#
# Every mode first prints the src/ line count (scripts/src_loc.sh).
#
# Test lanes are ctest labels (see tests/CMakeLists.txt): unit |
# baselines | integration | serve | serve_mt | streaming | quant | chaos |
# slow.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
MODE="${1:-default}"

# Library size, reported the same way on every run (see scripts/src_loc.sh).
scripts/src_loc.sh

run_preset() {
  local preset="$1"
  shift
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --preset "$preset" -j "$JOBS" "$@"
}

case "$MODE" in
  unit)
    run_preset default -L unit
    run_preset default -L baselines
    run_preset default -L serve
    run_preset default -L serve_mt
    run_preset default -L streaming
    run_preset default -L quant
    ;;
  full | default)
    run_preset default -L unit
    run_preset default -L baselines
    run_preset default -L serve
    run_preset default -L serve_mt
    run_preset default -L streaming
    run_preset default -L quant
    run_preset default -L chaos
    run_preset default -L integration
    run_preset default -L slow
    scripts/check_run_report.sh build
    # Serial lane: with no pool workers every request is one inline slice
    # at a time; the same tests and goldens must hold.
    RELGRAPH_NUM_THREADS=1 ctest --preset default -j "$JOBS" -L serve
    RELGRAPH_NUM_THREADS=1 scripts/check_run_report.sh build
    # Metrics-off lane: instrumentation must not change what the program
    # does, so the serving, streaming and chaos tests hold uninstrumented.
    RELGRAPH_METRICS=0 ctest --preset default -j "$JOBS" -L serve
    RELGRAPH_METRICS=0 ctest --preset default -j "$JOBS" -L streaming
    RELGRAPH_METRICS=0 ctest --preset default -j "$JOBS" -L chaos
    ;;
  nosimd)
    # The scalar-kernel lane: same tests, same goldens, vectorization off.
    # A pass here certifies the SIMD/portable bit-equality contract.
    run_preset nosimd
    ;;
  asan)
    run_preset asan
    ;;
  tsan)
    # The concurrency surface: thread-pool runtime, metrics/trace layer,
    # parallel GEMM, trainer seed groups and gradient sinks, per-thread
    # sampler scratch, serving engine, read-only PK lookups. The gtest
    # binaries run whole (ctest names tests by suite, not binary, so -R
    # cannot select them); any TSan report is fatal.
    cmake --preset tsan >/dev/null
    cmake --build --preset tsan -j "$JOBS"
    for t in parallel_test observability_test tensor_test train_test \
             sampler_test serve_test serve_resilience_test \
             serve_coalesce_test arena_test incremental_graph_test \
             streaming_serve_test columnar_agg_test gbdt_test quant_test \
             relational_test; do
      TSAN_OPTIONS="halt_on_error=1" "build-tsan/tests/$t"
    done
    ;;
  serve_mt)
    # The coalescing/shard-swap concurrency suite alone, under TSan — the
    # quick lane to run after touching the scheduler or the epoch caches.
    cmake --preset tsan >/dev/null
    cmake --build --preset tsan -j "$JOBS"
    TSAN_OPTIONS="halt_on_error=1" build-tsan/tests/serve_coalesce_test
    ;;
  chaos)
    # The chaos lane: seeded fault-injection tests under both sanitizers.
    # Deterministic degraded answers only mean something if the paths that
    # produce them are memory-error- and data-race-free while faults fire.
    run_preset asan -L chaos
    # Streaming fault sites (append_apply, compact) fire inside the
    # differential harness too — run it with the chaos lane.
    run_preset asan -L streaming
    cmake --preset tsan >/dev/null
    cmake --build --preset tsan -j "$JOBS"
    TSAN_OPTIONS="halt_on_error=1" build-tsan/tests/chaos_test
    TSAN_OPTIONS="halt_on_error=1" build-tsan/tests/streaming_serve_test
    ;;
  all)
    "$0" full
    "$0" nosimd
    "$0" asan
    "$0" tsan
    "$0" chaos
    ;;
  *)
    echo "usage: $0 [unit|full|nosimd|asan|tsan|serve_mt|chaos|all]" >&2
    exit 2
    ;;
esac
