#!/usr/bin/env bash
# Measures the compressed graph container under every codec of the sweep
# — bits/edge and sequential/random decode throughput, with the
# parallel-byte code (v2_byte_*) as the reference row — and writes the
# flat JSON report to results/BENCH_graph.json (or $1 if given).
#
# Environment: PROFILE (dataset profile name, default friendster) and
# RAND_PROBES (random-access probe count) are passed through to the
# bench_graph_json binary; --scale/--seed use the committed-baseline
# defaults unless SCALE/SEED are set.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-results/BENCH_graph.json}
SCALE=${SCALE:-0.001}
SEED=${SEED:-42}
mkdir -p "$(dirname "$OUT")"

cargo run --release -p lightne-bench --bin bench_graph_json -- \
    --scale "$SCALE" --seed "$SEED" > "$OUT"
echo "wrote $OUT:"
cat "$OUT"
