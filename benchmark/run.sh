#!/usr/bin/env bash
# Runs the benchmark from the repository root. With no arguments: every
# workload once on seed 42, every metric by name, every correctness check;
# non-zero exit if a check fails. Arguments are passed through, e.g.
#   benchmark/run.sh all --seed 7 --out benchmark/out/a.json
#   benchmark/run.sh trace sbm_factor
#   benchmark/run.sh selfcheck
#   benchmark/run.sh compare benchmark/out/a.json benchmark/out/b.json
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
  set -- all --seed 42
fi
exec cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"
