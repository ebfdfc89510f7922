#!/usr/bin/env bash
# End-to-end check of the black-box flight recorder (registered as the
# `blackbox_report_check` ctest): run a small capacity-crisis sweep
# with `--blackbox` on, then assert
#   - the dump is a schema-stamped imsim.blackbox/1 document;
#   - tools/imsim_report renders the dump as a Flight recorder section
#     with inline SVG timelines;
#   - a newer-schema dump degrades to the muted fallback paragraph
#     instead of failing the whole page.
#
# The dump's determinism across --jobs is pinned by
# scripts/check_golden_payloads.sh (fault_crisis_smoke_blackbox.sha256).
#
# Usage: scripts/check_blackbox_report.sh CRISIS_BIN REPORT_BIN OUTDIR
set -euo pipefail

CRISIS_BIN="$1"
REPORT_BIN="$2"
OUTDIR="$3"

mkdir -p "$OUTDIR"

"$CRISIS_BIN" --smoke --jobs 2 \
    --blackbox "$OUTDIR/blackbox.json" \
    --report "$OUTDIR/run.json" \
    --watchdog "$OUTDIR/incidents.json" >/dev/null 2>&1

if ! grep -q '"schema": "imsim.blackbox/1"' "$OUTDIR/blackbox.json"; then
    echo "FAIL: $OUTDIR/blackbox.json is not schema-stamped" >&2
    exit 1
fi

"$REPORT_BIN" --report "$OUTDIR/run.json" \
    --incidents "$OUTDIR/incidents.json" \
    --blackbox "$OUTDIR/blackbox.json" \
    --out "$OUTDIR/report.html"
HTML="$OUTDIR/report.html"
if ! grep -q "Flight recorder" "$HTML"; then
    echo "FAIL: no Flight recorder section in $HTML" >&2
    exit 1
fi
if ! grep -q '<svg class="timeline"' "$HTML"; then
    echo "FAIL: no inline SVG timeline in $HTML" >&2
    exit 1
fi

# Forward compatibility: a dump from a newer build must degrade to the
# muted paragraph, not break the page.
echo '{"schema": "imsim.blackbox/99", "points": []}' \
    > "$OUTDIR/blackbox_future.json"
"$REPORT_BIN" --report "$OUTDIR/run.json" \
    --blackbox "$OUTDIR/blackbox_future.json" \
    --out "$OUTDIR/report_future.html" 2>/dev/null
if ! grep -q "Could not render blackbox" "$OUTDIR/report_future.html"; then
    echo "FAIL: newer-schema dump did not degrade gracefully" >&2
    exit 1
fi

echo "blackbox_report_check: OK ($HTML)"
