#!/usr/bin/env bash
# Build the ThreadSanitizer configuration (warnings-as-errors) and run
# the concurrency-sensitive tests (ctest label "tsan"): the
# util::ShardRunner executor, the parallel sweeps that run on it
# (including points that shard internally), the observability layer's
# per-point capture/merge path, and the intra-run fleet sharding (the
# "fleet-par-tsan"/"obs-tsan" labels match the tsan regex, so the
# sharded minute loop and sharded FleetAggregator::observe run under
# the sanitizer here), plus the event kernel and queueing-core suites
# (label "kernel", tests/test_sim.cc and tests/test_queueing.cc), which
# scripts/asan.sh also runs.
#
# Usage: scripts/tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
    -DIMSIM_SANITIZE=thread \
    -DIMSIM_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L "tsan|kernel" --output-on-failure -j "$(nproc)"
