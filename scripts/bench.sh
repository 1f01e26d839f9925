#!/usr/bin/env bash
# Record serial-vs-parallel timings for lock-free batched inference, plus
# train-step, kernel and f32 embed timings and the per-op tape profile.
# Writes BENCH_parallel.json, BENCH_kernels.json and results/profile.json
# at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --bin bench_parallel
cargo run --release --quiet --bin bench_parallel
echo
echo "BENCH_parallel.json:"
cat BENCH_parallel.json
echo
echo "BENCH_kernels.json:"
cat BENCH_kernels.json
