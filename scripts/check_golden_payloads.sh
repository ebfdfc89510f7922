#!/usr/bin/env bash
# Golden-payload gate for the datacenter minute loop and the auto-scaler
# (registered as the `golden_payloads_check` ctest, label fleet-par):
# regenerate three `--report` payloads and require each to be
# byte-identical to its committed golden once the manifest line
# (timestamp/argv) is dropped.
#
#   tests/golden/power_oversub.json   bench_power_oversub: rack-aggregate
#                                     fidelity, three policies, at every
#                                     --jobs {1,4} x --sim-threads {1,4};
#   tests/golden/control_smoke.json   bench_control --smoke: per-server
#                                     sessions stepped by six controllers
#                                     over twelve episodes, same matrix;
#   tests/golden/table11_step60.json  bench_table11_autoscaler --step 60
#                                     --skip-downramp: the Table XI
#                                     up-ramp for three policies, at
#                                     --jobs {1,4}, with and without
#                                     --telemetry (the gauges then read
#                                     the windowed utilization before
#                                     the auto-scaler decides).
#
# Every report prints 17 significant digits, so any change in the bits
# of an outcome fails the gate.
#
# Usage: scripts/check_golden_payloads.sh POWER_OVERSUB_BIN CONTROL_BIN \
#            TABLE11_BIN GOLDEN_DIR OUTDIR
set -euo pipefail

POWER_BIN="$1"
CONTROL_BIN="$2"
TABLE11_BIN="$3"
GOLDEN_DIR="$4"
OUTDIR="$5"

mkdir -p "$OUTDIR"
status=0

# check NAME GOLDEN CMD... : run CMD with --report, compare to GOLDEN.
check() {
    local name="$1" golden="$2"
    shift 2
    local out="$OUTDIR/$name.json"
    "$@" --report "$out" >/dev/null 2>&1
    if ! cmp -s <(sed '/"meta"/d' "$out") "$golden"; then
        echo "FAIL: $name differs from $golden" >&2
        diff <(sed '/"meta"/d' "$out") "$golden" >&2 || true
        status=1
    fi
}

for jobs in 1 4; do
    for threads in 1 4; do
        check "power_oversub_j${jobs}_t${threads}" \
            "$GOLDEN_DIR/power_oversub.json" \
            "$POWER_BIN" --jobs "$jobs" --sim-threads "$threads"
        check "control_smoke_j${jobs}_t${threads}" \
            "$GOLDEN_DIR/control_smoke.json" \
            "$CONTROL_BIN" --smoke --jobs "$jobs" --sim-threads "$threads"
    done
    check "table11_step60_j${jobs}" "$GOLDEN_DIR/table11_step60.json" \
        "$TABLE11_BIN" --step 60 --skip-downramp --jobs "$jobs"
    check "table11_step60_j${jobs}_telemetry" \
        "$GOLDEN_DIR/table11_step60.json" \
        "$TABLE11_BIN" --step 60 --skip-downramp --jobs "$jobs" \
        --telemetry "$OUTDIR/table11_step60_j${jobs}.csv"
done

if [ "$status" -ne 0 ]; then
    exit "$status"
fi
echo "golden_payloads_check: OK (12 payloads)"
