#!/usr/bin/env bash
# Build the Release configuration and run the hot-path perf-regression
# harness (bench/bench_hot_paths.cc), writing BENCH_hotpaths.json at
# the repo root. Commit the refreshed JSON alongside performance-
# sensitive changes so the next PR has a baseline to diff against; the
# schema is documented in DESIGN.md ("Performance & hot paths").
#
# With --check the committed BENCH_hotpaths.json is treated as the
# baseline instead of being overwritten: a fresh full-scale run is
# compared against it (ns/op within a tolerance band, allocs/op
# tightly) and the script exits non-zero on a regression. This is the
# gate scripts/check.sh runs before a commit.
#
# A fast smoke variant runs under plain ctest: `ctest -L perf`. The
# functional gates (bench_fault_crisis --smoke, bench_control --smoke,
# bench_obs_overhead --check) are check-table rows of the tier-1 ctest
# suite, with their stdout and artifact goldens, not steps here.
#
# Usage: scripts/bench.sh [--check] [build-dir] [extra bench flags...]
#        (default build dir: build-bench)
set -euo pipefail

cd "$(dirname "$0")/.."

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
    CHECK=1
    shift
fi
BUILD_DIR="${1:-build-bench}"
shift || true

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_hot_paths

if [[ "$CHECK" == 1 ]]; then
    # Container timing is noisy, so the ns/op band is generous (x1.5);
    # the allocs/op contract is structural and always checked tightly.
    "$BUILD_DIR"/bench/bench_hot_paths \
        --out "$BUILD_DIR"/BENCH_hotpaths.fresh.json \
        --baseline BENCH_hotpaths.json --tolerance 0.5 "$@"
else
    # A committed baseline must be reproducible: refuse to write one
    # from a dirty tree (its manifest would record git_dirty=true and
    # the numbers could include uncommitted code). Export
    # IMSIM_BENCH_ALLOW_DIRTY=1 for local experiments.
    if [[ -n "$(git status --porcelain 2>/dev/null)" ]]; then
        if [[ "${IMSIM_BENCH_ALLOW_DIRTY:-0}" == 1 ]]; then
            echo "WARNING: writing BENCH_hotpaths.json from a DIRTY" \
                 "tree (IMSIM_BENCH_ALLOW_DIRTY=1); do not commit" \
                 "this baseline." >&2
        else
            echo "ERROR: working tree is dirty; a committed baseline" \
                 "must come from a clean tree. Commit/stash first, or" \
                 "set IMSIM_BENCH_ALLOW_DIRTY=1 for a throwaway" \
                 "local run." >&2
            exit 1
        fi
    fi
    "$BUILD_DIR"/bench/bench_hot_paths --out BENCH_hotpaths.json "$@"
fi
