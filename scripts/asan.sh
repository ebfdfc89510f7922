#!/usr/bin/env bash
# Build the AddressSanitizer + UndefinedBehaviorSanitizer configuration
# (warnings-as-errors) and run the concurrency-sensitive tests (ctest
# label "tsan", the same set scripts/tsan.sh runs): the
# util::ShardRunner executor, the parallel sweeps that run on it, the
# observability layer's per-point capture/merge path, the sharded
# minute loop and the sharded FleetAggregator::observe. Catches
# use-after-free, out-of-bounds and lifetime errors across the fork and
# the join that ThreadSanitizer does not look for. Also runs the
# artifact-reader mutation fuzzer (label "fuzz", tests/test_fuzz.cc)
# and the event kernel and queueing-core suites (label "kernel",
# tests/test_sim.cc and tests/test_queueing.cc), whose typed one-shot
# events hand slab slots between the kernel and its targets.
#
# Usage: scripts/asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
    -DIMSIM_SANITIZE=address \
    -DIMSIM_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
# UBSan only prints its findings by default; make them fail the test.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
ctest --test-dir "$BUILD_DIR" -L "tsan|fuzz|kernel" --output-on-failure -j "$(nproc)"
