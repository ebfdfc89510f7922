#!/usr/bin/env bash
# The pre-commit gate, in the order a failure is cheapest to find:
#   1. configure + build the default (RelWithDebInfo) tree;
#   2. the full tier-1 ctest suite (unit, integration, properties);
#   3. the fault-injection suite (`ctest -L fault`: injector unit tests
#      plus the capacity-crisis smoke sweep);
#   4. the fleet smoke (`ctest -L fleet`: the scalar-vs-batched
#      equivalence oracle and fleet edge cases);
#   5. the intra-run parallelism gate (`ctest -L fleet-par`: sharded
#      minute-loop outputs bit-identical to serial for any --sim-threads,
#      and both fidelities' golden report payloads at every --jobs x
#      --sim-threads combination);
#   6. the observability suite (`ctest -L obs`: sketches, fleet
#      aggregator, watchdogs, incident timelines, crisis detection);
#   7. the flight-recorder suite (`ctest -L blackbox`: retention /
#      post-mortem unit tests plus the end-to-end dump + report gate);
#   8. the closed-loop control suite (`ctest -L control`: the ControlEnv
#      determinism oracle, controller envelope tests, and the
#      bench_control --smoke controller sweep);
#   9. the perf smoke benches (`ctest -L perf`);
#  10. the hot-path regression check against the committed
#      BENCH_hotpaths.json (scripts/bench.sh --check, which also runs
#      the bench_obs_overhead --check 0-allocs contract).
#
# Stops at the first failing step. The tsan suites have their own
# entry point (scripts/tsan.sh) because they need a separate build.
#
# Usage: scripts/check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== [1/10] build ($BUILD_DIR) =="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== [2/10] tier-1 tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== [3/10] fault-injection suite (ctest -L fault) =="
ctest --test-dir "$BUILD_DIR" -L fault --output-on-failure

echo "== [4/10] fleet smoke (ctest -L fleet) =="
ctest --test-dir "$BUILD_DIR" -L fleet --output-on-failure

echo "== [5/10] intra-run parallelism gate (ctest -L fleet-par) =="
ctest --test-dir "$BUILD_DIR" -L fleet-par --output-on-failure

echo "== [6/10] observability suite (ctest -L obs) =="
ctest --test-dir "$BUILD_DIR" -L obs --output-on-failure

echo "== [7/10] flight-recorder suite (ctest -L blackbox) =="
ctest --test-dir "$BUILD_DIR" -L blackbox --output-on-failure

echo "== [8/10] closed-loop control suite (ctest -L control) =="
ctest --test-dir "$BUILD_DIR" -L control --output-on-failure

echo "== [9/10] perf smoke (ctest -L perf) =="
ctest --test-dir "$BUILD_DIR" -L perf --output-on-failure

echo "== [10/10] hot-path regression check =="
scripts/bench.sh --check

echo "All checks passed."
