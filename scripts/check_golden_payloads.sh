#!/usr/bin/env bash
# Golden-payload gate for the datacenter minute loop, the auto-scaler
# and the sweep binaries (registered as the `golden_payloads_check`
# ctest, label fleet-par): regenerate the `--report` payloads and the
# observer artifacts below and require each to match its committed
# golden once the manifest is dropped (the `"meta"` line of a JSON
# payload, the `"metadata"` line of a Chrome trace, and every `# key:`
# comment line but `# schema:` of a CSV). A golden under about 100 KB
# is committed as the stripped payload and byte-compared; a larger one
# is committed as the SHA-256 of the stripped payload (`*.sha256`).
#
#   tests/golden/power_oversub.json   bench_power_oversub: rack-aggregate
#                                     fidelity, three policies, at every
#                                     --jobs {1,4} x --sim-threads {1,4},
#                                     with and without --blackbox;
#   tests/golden/power_oversub_blackbox.sha256
#                                     the --blackbox flight recorders of
#                                     that run;
#   tests/golden/control_smoke.json   bench_control --smoke: per-server
#                                     sessions stepped by six controllers
#                                     over twelve episodes, same matrix;
#   tests/golden/table11_step60.json  bench_table11_autoscaler --step 60
#                                     --skip-downramp: the Table XI
#                                     up-ramp for three policies, at
#                                     --jobs {1,4}, with and without
#                                     --telemetry and --trace (the gauges
#                                     then read the windowed utilization
#                                     before the auto-scaler decides);
#   tests/golden/table11_step60_telemetry.csv
#                                     the --telemetry CSV of that run:
#                                     the auto-scaler's gauges and
#                                     counters, in registration order;
#   tests/golden/table11_step60_trace.json
#                                     the --trace Chrome trace of that
#                                     run, one track per point;
#   tests/golden/fig9_workloads.json  bench_fig9_workloads, at
#                                     --jobs {1,4};
#   tests/golden/fig12_oversub_latency.json
#                                     bench_fig12_oversub_latency, at
#                                     --jobs {1,4};
#   tests/golden/fault_crisis_smoke.json
#                                     bench_fault_crisis --smoke: the
#                                     crisis-day grid, at --jobs {1,4},
#                                     with and without --telemetry,
#                                     --watchdog, --trace and --blackbox;
#   tests/golden/fault_crisis_smoke_telemetry.csv
#                                     the --telemetry CSV of that run:
#                                     auto-scaler, watchdog, fault and
#                                     invariant metrics, in registration
#                                     order (the order the crisis run
#                                     attaches its observers in);
#   tests/golden/fault_crisis_smoke_incidents.json
#                                     the --watchdog incident timelines
#                                     of that run;
#   tests/golden/fault_crisis_smoke_trace.sha256
#   tests/golden/fault_crisis_smoke_blackbox.sha256
#                                     its --trace and --blackbox
#                                     artifacts;
#   tests/golden/fleet_simulation.json
#                                     examples/fleet_simulation: the
#                                     Monte-Carlo report, at --jobs {1,4},
#                                     with and without --telemetry and
#                                     --blackbox;
#   tests/golden/fleet_simulation_telemetry.sha256
#   tests/golden/fleet_simulation_blackbox.sha256
#                                     its --telemetry and --blackbox
#                                     artifacts.
#
# Every report prints 17 significant digits, so any change in the bits
# of an outcome fails the gate.
#
# Usage: scripts/check_golden_payloads.sh POWER_OVERSUB_BIN CONTROL_BIN \
#            TABLE11_BIN FIG9_BIN FIG12_BIN FAULT_CRISIS_BIN \
#            FLEET_SIMULATION_BIN GOLDEN_DIR OUTDIR
set -euo pipefail

POWER_BIN="$1"
CONTROL_BIN="$2"
TABLE11_BIN="$3"
FIG9_BIN="$4"
FIG12_BIN="$5"
FAULT_CRISIS_BIN="$6"
FLEET_BIN="$7"
GOLDEN_DIR="$8"
OUTDIR="$9"

mkdir -p "$OUTDIR"
status=0
payloads=0

# drop_manifest NAME OUT : OUT with its manifest dropped, into NAME.stripped.
drop_manifest() {
    sed -e '/"meta"/d' -e '/"metadata"/d' -e '/^# /{/^# schema:/!d}' \
        "$2" > "$OUTDIR/$1.stripped"
    payloads=$((payloads + 1))
}

# same NAME OUT GOLDEN : compare OUT, manifest dropped, to GOLDEN.
same() {
    local name="$1" out="$2" golden="$3"
    drop_manifest "$name" "$out"
    if ! cmp -s "$OUTDIR/$name.stripped" "$golden"; then
        echo "FAIL: $name differs from $golden" >&2
        diff "$OUTDIR/$name.stripped" "$golden" >&2 || true
        status=1
    fi
}

# digest NAME OUT GOLDEN : compare the SHA-256 of OUT, manifest
# dropped, to the digest GOLDEN holds.
digest() {
    local name="$1" out="$2" golden="$3" got
    drop_manifest "$name" "$out"
    got=$(sha256sum < "$OUTDIR/$name.stripped" | cut -d' ' -f1)
    if [ "$got" != "$(cat "$golden")" ]; then
        echo "FAIL: $name digest $got differs from $golden" >&2
        status=1
    fi
}

# check NAME GOLDEN CMD... : run CMD with --report, compare to GOLDEN.
check() {
    local name="$1" golden="$2"
    shift 2
    local out="$OUTDIR/$name.json"
    "$@" --report "$out" >/dev/null 2>&1
    same "$name" "$out" "$golden"
}

for jobs in 1 4; do
    for threads in 1 4; do
        check "power_oversub_j${jobs}_t${threads}" \
            "$GOLDEN_DIR/power_oversub.json" \
            "$POWER_BIN" --jobs "$jobs" --sim-threads "$threads"
        check "power_oversub_j${jobs}_t${threads}_blackbox" \
            "$GOLDEN_DIR/power_oversub.json" \
            "$POWER_BIN" --jobs "$jobs" --sim-threads "$threads" \
            --blackbox "$OUTDIR/power_oversub_j${jobs}_t${threads}_bb.json"
        digest "power_oversub_j${jobs}_t${threads}_bb" \
            "$OUTDIR/power_oversub_j${jobs}_t${threads}_bb.json" \
            "$GOLDEN_DIR/power_oversub_blackbox.sha256"
        check "control_smoke_j${jobs}_t${threads}" \
            "$GOLDEN_DIR/control_smoke.json" \
            "$CONTROL_BIN" --smoke --jobs "$jobs" --sim-threads "$threads"
    done
    check "table11_step60_j${jobs}" "$GOLDEN_DIR/table11_step60.json" \
        "$TABLE11_BIN" --step 60 --skip-downramp --jobs "$jobs"
    check "table11_step60_j${jobs}_telemetry" \
        "$GOLDEN_DIR/table11_step60.json" \
        "$TABLE11_BIN" --step 60 --skip-downramp --jobs "$jobs" \
        --telemetry "$OUTDIR/table11_step60_j${jobs}.csv" \
        --trace "$OUTDIR/table11_step60_j${jobs}_trace.json"
    same "table11_step60_j${jobs}_telemetry_csv" \
        "$OUTDIR/table11_step60_j${jobs}.csv" \
        "$GOLDEN_DIR/table11_step60_telemetry.csv"
    same "table11_step60_j${jobs}_trace" \
        "$OUTDIR/table11_step60_j${jobs}_trace.json" \
        "$GOLDEN_DIR/table11_step60_trace.json"
    check "fig9_workloads_j${jobs}" "$GOLDEN_DIR/fig9_workloads.json" \
        "$FIG9_BIN" --jobs "$jobs"
    check "fig12_oversub_latency_j${jobs}" \
        "$GOLDEN_DIR/fig12_oversub_latency.json" \
        "$FIG12_BIN" --jobs "$jobs"
    check "fault_crisis_smoke_j${jobs}" \
        "$GOLDEN_DIR/fault_crisis_smoke.json" \
        "$FAULT_CRISIS_BIN" --smoke --jobs "$jobs"
    check "fault_crisis_smoke_j${jobs}_observed" \
        "$GOLDEN_DIR/fault_crisis_smoke.json" \
        "$FAULT_CRISIS_BIN" --smoke --jobs "$jobs" \
        --telemetry "$OUTDIR/fault_crisis_smoke_j${jobs}.csv" \
        --watchdog "$OUTDIR/fault_crisis_smoke_j${jobs}_incidents.json" \
        --trace "$OUTDIR/fault_crisis_smoke_j${jobs}_trace.json" \
        --blackbox "$OUTDIR/fault_crisis_smoke_j${jobs}_bb.json"
    same "fault_crisis_smoke_j${jobs}_telemetry_csv" \
        "$OUTDIR/fault_crisis_smoke_j${jobs}.csv" \
        "$GOLDEN_DIR/fault_crisis_smoke_telemetry.csv"
    same "fault_crisis_smoke_j${jobs}_incidents" \
        "$OUTDIR/fault_crisis_smoke_j${jobs}_incidents.json" \
        "$GOLDEN_DIR/fault_crisis_smoke_incidents.json"
    digest "fault_crisis_smoke_j${jobs}_trace" \
        "$OUTDIR/fault_crisis_smoke_j${jobs}_trace.json" \
        "$GOLDEN_DIR/fault_crisis_smoke_trace.sha256"
    digest "fault_crisis_smoke_j${jobs}_bb" \
        "$OUTDIR/fault_crisis_smoke_j${jobs}_bb.json" \
        "$GOLDEN_DIR/fault_crisis_smoke_blackbox.sha256"
    check "fleet_simulation_j${jobs}" "$GOLDEN_DIR/fleet_simulation.json" \
        "$FLEET_BIN" --jobs "$jobs"
    check "fleet_simulation_j${jobs}_observed" \
        "$GOLDEN_DIR/fleet_simulation.json" \
        "$FLEET_BIN" --jobs "$jobs" \
        --telemetry "$OUTDIR/fleet_simulation_j${jobs}.csv" \
        --blackbox "$OUTDIR/fleet_simulation_j${jobs}_bb.json"
    digest "fleet_simulation_j${jobs}_telemetry_csv" \
        "$OUTDIR/fleet_simulation_j${jobs}.csv" \
        "$GOLDEN_DIR/fleet_simulation_telemetry.sha256"
    digest "fleet_simulation_j${jobs}_bb" \
        "$OUTDIR/fleet_simulation_j${jobs}_bb.json" \
        "$GOLDEN_DIR/fleet_simulation_blackbox.sha256"
done

if [ "$status" -ne 0 ]; then
    exit "$status"
fi
echo "golden_payloads_check: OK ($payloads payloads)"
