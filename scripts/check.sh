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
#   3. the end-to-end benchmark builds and runs: perfbench/run.py
#      compiles perfbench/ against src/ (so a library API change that
#      breaks it fails here, not at benchmark time), then runs each
#      gated workload (fleet-perserver, control-crisis, autoscale-ramp)
#      for 1 s with --smoke and --trace 0, one --trace 1 run, one
#      full-size fleet-perserver pass (backout and capping at 100k
#      servers) and one full-size autoscale-ramp pass (its 180-s
#      utilization reads clip their start, evict and wrap the window's
#      ring, which the smoke ramp's 160 s never do), one full-size
#      control-crisis pass (the whole crisis day) and a smoke and a
#      full-size pass of the report-only fleet-rackagg workload (the
#      rack-aggregate trace path); each run must exit 0 with the
#      declared metrics and print the outcome digest pinned in
#      tests/golden/perfbench_digests.txt;
#   4. the hot-path timing check against the committed
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

echo "== [1/4] build ($BUILD_DIR) =="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== [2/4] tier-1 tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== [3/4] perfbench build + digest-pinned runs =="
DIGESTS=tests/golden/perfbench_digests.txt
# Usage: perfbench_run LABEL WORKLOAD TRACE [run.py flag...]. Runs one
# seed-1, 1-s workload and compares its digest with LABEL's pinned one.
perfbench_run() {
    local label="$1" workload="$2" trace="$3"
    shift 3
    local got want
    got=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 1 --trace "$trace" "$@" |
        awk '$1 == "workload" && $7 == "digest" { print $8 }')
    want=$(awk -v key="$label" '$1 == key { print $2 }' "$DIGESTS")
    if [ -z "$got" ] || [ "$got" != "$want" ]; then
        echo "perfbench $label: digest '$got', pinned '$want' ($DIGESTS)" >&2
        return 1
    fi
}
for workload in fleet-perserver control-crisis autoscale-ramp; do
    perfbench_run "$workload/smoke" "$workload" 0 --smoke
done
perfbench_run control-crisis/smoke-traced control-crisis 1 --smoke
perfbench_run fleet-perserver/full fleet-perserver 0
perfbench_run autoscale-ramp/full autoscale-ramp 0
perfbench_run control-crisis/full control-crisis 0
perfbench_run fleet-rackagg/smoke fleet-rackagg 0 --smoke
perfbench_run fleet-rackagg/full fleet-rackagg 0

echo "== [4/4] hot-path regression check =="
scripts/bench.sh --check

echo "All checks passed."
