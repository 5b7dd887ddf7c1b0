#!/usr/bin/env bash
# End-to-end corruption drill for the run journal, the sweep-side twin
# of corruption_smoke.sh (both files are one RecordLog):
#
#  1. run an uninterrupted reference sweep, then the same sweep with
#     --journal;
#  2. damage the journal offline with seeded `store-bitflip` byte flips
#     via `grit_serve --corrupt` (the header line is spared);
#  3. resume with --sweep-stats: the scrub must quarantine exactly the
#     damaged records into the `.quarantine` sidecar, and exactly those
#     cells re-execute;
#  4. resume again: every cell replays from the journal and the --json
#     export is byte-identical to the reference.
#
# Usage: journal_corruption_smoke.sh SWEEP_BIN GRIT_SERVE WORKDIR

set -u

SWEEP=$1
SERVE=$2
WORKDIR=$3

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
JOURNAL="$WORKDIR/journal.jsonl"

# The golden-pinned workload scale: small and fast.
export GRIT_FOOTPRINT_DIVISOR=128
export GRIT_INTENSITY=0.2

fail() {
    echo "FAIL: $*" >&2
    for log in "$WORKDIR"/*.log; do
        [ -f "$log" ] && { echo "--- $log ---" >&2; cat "$log" >&2; }
    done
    exit 1
}

sweep_stat() {  # sweep_stat FILE KEY -> the "sweep" section's KEY
    python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["sweep"][sys.argv[2]])' "$1" "$2"
}

# ---- 1. reference and journaled sweeps -------------------------------

"$SWEEP" --json "$WORKDIR/reference.json" >/dev/null \
    2>"$WORKDIR/reference.log" || fail "reference sweep failed"
"$SWEEP" --journal "$JOURNAL" >/dev/null 2>"$WORKDIR/journaled.log" ||
    fail "journaled sweep failed"

# ---- 2. damage the journal offline -----------------------------------

"$SERVE" --store "$JOURNAL" --corrupt "store-bitflip:seed=20261018,flips=3" \
    >"$WORKDIR/corrupt.out" 2>"$WORKDIR/corrupt.log" ||
    fail "offline corruption injector failed"
DAMAGED=$(awk '$1 == "records_damaged" { print $2 }' "$WORKDIR/corrupt.out")
[ -n "$DAMAGED" ] && [ "$DAMAGED" -ge 1 ] ||
    fail "injector damaged no records: $(cat "$WORKDIR/corrupt.out")"

# ---- 3. resume: quarantine exactly the damage, re-run exactly it -----

"$SWEEP" --journal "$JOURNAL" --resume --sweep-stats \
    --json "$WORKDIR/resumed.json" >/dev/null 2>"$WORKDIR/resumed.log" ||
    fail "resume over the damaged journal failed"
[ -f "$JOURNAL.quarantine" ] || fail "no quarantine sidecar was written"
QUARANTINED=$(wc -l <"$JOURNAL.quarantine")
[ "$QUARANTINED" -eq "$DAMAGED" ] ||
    fail "sidecar holds $QUARANTINED record(s), injector damaged $DAMAGED"
EXECUTED=$(sweep_stat "$WORKDIR/resumed.json" executed) ||
    fail "resumed export has no sweep section"
[ "$EXECUTED" -eq "$DAMAGED" ] ||
    fail "resume executed $EXECUTED cell(s), injector damaged $DAMAGED"

# ---- 4. a full replay matches the reference byte for byte ------------

"$SWEEP" --journal "$JOURNAL" --resume --json "$WORKDIR/replayed.json" \
    >/dev/null 2>"$WORKDIR/replayed.log" || fail "replay failed"
cmp -s "$WORKDIR/reference.json" "$WORKDIR/replayed.json" ||
    fail "replayed export differs from the uninterrupted reference"

echo "journal_corruption_smoke: OK ($DAMAGED damaged record(s) quarantined and re-run)"
exit 0
