#!/usr/bin/env bash
# The pre-commit gate, in the order a failure is cheapest to find:
#   1. configure + build the default (RelWithDebInfo) tree;
#   2. the full tier-1 ctest suite: the gtest cases and every row of
#      the check table (tests/checks.json, ctest check.<row>: stdout
#      and artifact goldens, HTML expectations, paper anchors). The
#      labels select subsets for local runs: fault, fleet, fleet-par,
#      obs, blackbox, control, perf, tsan, kernel, fuzz, anchors (the
#      rows that check EXPERIMENTS.md's paper values) and slow (the full
#      fault-crisis sweep, ~50-90 s). No test is excluded from the
#      default run;
#   3. the hot-path timing check against the committed
#      BENCH_hotpaths.json (scripts/bench.sh --check). The functional
#      gates bench.sh once re-ran (bench_fault_crisis --smoke,
#      bench_control --smoke, bench_obs_overhead --check) are the
#      check.fault_crisis_smoke, check.control_smoke and
#      check.obs_overhead_check rows of step 2.
#
# Stops at the first failing step. The tsan suites have their own
# entry points (scripts/tsan.sh, scripts/asan.sh) because they need a
# separate build.
#
# Usage: scripts/check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== [1/3] build ($BUILD_DIR) =="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== [2/3] tier-1 tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== [3/3] hot-path regression check =="
scripts/bench.sh --check

echo "All checks passed."
