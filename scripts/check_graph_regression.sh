#!/usr/bin/env bash
# Graph-format compression/decode gate (run by CI).
#
# Reads a fresh bench_graph_json report ($1, default
# results/BENCH_graph_new.json — produce one with run_graph_bench.sh)
# and fails (exit 1) when:
#
#   1. a machine-independent floor is missed — the best codec must
#      compress to <= BITS_MAX_RATIO of the parallel-byte code's
#      bits/edge (the v2_byte_* row; default 0.92) and sequentially
#      decode within DECODE_MAX_SLOWDOWN of it (default 1.13); both are
#      ratios of two measurements on the *same* machine and graph, so
#      they hold regardless of host speed; or
#   2. bits/edge regressed against the committed baseline by more than
#      BITS_TOLERANCE (default 2%). The encoding is deterministic in
#      (profile, scale, seed), so this check is skipped per-report when
#      those keys differ from the baseline's (CI smoke runs use smaller
#      scales), and entirely when no baseline exists yet.
set -euo pipefail
cd "$(dirname "$0")/.."

NEW=${1:-results/BENCH_graph_new.json}
BASELINE=${BASELINE:-results/BENCH_graph.json}
BITS_MAX_RATIO=${BITS_MAX_RATIO:-0.92}
DECODE_MAX_SLOWDOWN=${DECODE_MAX_SLOWDOWN:-1.13}
BITS_TOLERANCE=${BITS_TOLERANCE:-1.02}

[ -f "$NEW" ] || { echo "no report at $NEW (run scripts/run_graph_bench.sh $NEW)"; exit 1; }

# Extracts the value of a flat one-key-per-line JSON field.
field() { # field <file> <key>
    awk -F': ' -v k="\"$2\"" '$1 ~ k { gsub(/[ ,"]/, "", $2); print $2; exit }' "$1"
}

fail=0

check_max() { # check_max <name> <key> <ceiling>
    local got ceiling=$3
    got=$(field "$NEW" "$2")
    [ -n "$got" ] || { echo "FAIL: $NEW has no $2"; fail=1; return; }
    if awk -v g="$got" -v c="$ceiling" 'BEGIN { exit !(g <= c) }'; then
        echo "ok: $1 $got <= $ceiling"
    else
        echo "FAIL: $1 $got above ceiling $ceiling"
        fail=1
    fi
}

check_max "best/byte bits ratio (best codec $(field "$NEW" v2_best_codec))" \
    bits_ratio_best "$BITS_MAX_RATIO"
check_max "best/byte sequential decode slowdown" seq_slowdown_best "$DECODE_MAX_SLOWDOWN"

if [ -f "$BASELINE" ]; then
    same=1
    for sk in profile scale seed n arcs; do
        if [ "$(field "$NEW" "$sk")" != "$(field "$BASELINE" "$sk")" ]; then
            echo "skip: baseline comparison ($sk differs from baseline)"
            same=0
            break
        fi
    done
    if [ "$same" = 1 ]; then
        got=$(field "$NEW" v2_best_bits_per_edge)
        base=$(field "$BASELINE" v2_best_bits_per_edge)
        if awk -v g="$got" -v b="$base" -v t="$BITS_TOLERANCE" 'BEGIN { exit !(g <= b * t) }'; then
            echo "ok: best v2 bits/edge $got vs baseline $base (tolerance ${BITS_TOLERANCE}x)"
        else
            echo "FAIL: best v2 bits/edge regressed to $got, baseline $base"
            fail=1
        fi
    fi
else
    echo "no committed baseline at $BASELINE; ratio floors only"
fi

exit "$fail"
