#!/usr/bin/env bash
# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
# Scale with TMPROF_SCALE=quick|default|full (default: default).
set -euo pipefail
cd "$(dirname "$0")"
out="results/experiments_${TMPROF_SCALE:-default}.txt"
mkdir -p results
cargo run --release -p tmprof-bench --bin experiments | tee "$out"
echo "Transcript written to $out"
