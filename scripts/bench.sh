#!/usr/bin/env bash
# Parallel-speedup benchmark harness.
#
# Runs the engine + kernel hot paths at Parallelism(1) and Parallelism(N)
# and writes BENCH_parallel.json (ops/s + speedup per bench, plus the
# engine-speedup geomean) so future PRs have a perf trajectory to compare
# against. Also runs the criterion-style micro benches at both thread
# counts for the detailed per-kernel view.
#
# Usage: scripts/bench.sh [THREADS] [OUT_JSON]
#   THREADS  parallel thread count (default: all host cores)
#   OUT_JSON output path (default: BENCH_parallel.json)
set -euo pipefail
cd "$(dirname "$0")/.."

THREADS="${1:-$(nproc)}"
OUT="${2:-BENCH_parallel.json}"
SECS="${BENCH_SECS:-0.5}"

echo "== building (release) =="
cargo build --release --offline -p inferturbo-bench
# parbench's engine/pregel_sage2_3k_xproc spawns the release `itworker`.
cargo build --release --offline -p inferturbo-cluster --bin itworker

echo "== parbench: serial vs ${THREADS} threads -> ${OUT} =="
cargo run --release --offline -p inferturbo-bench --bin parbench -- \
    --threads "${THREADS}" --out "${OUT}" --secs "${SECS}"

echo "== micro benches at 1 thread =="
INFERTURBO_THREADS=1 BENCH_SAMPLE_SECS="${SECS}" \
    cargo bench --offline -p inferturbo-bench --bench kernels
echo "== micro benches at ${THREADS} threads =="
INFERTURBO_THREADS="${THREADS}" BENCH_SAMPLE_SECS="${SECS}" \
    cargo bench --offline -p inferturbo-bench --bench kernels

echo "done; see ${OUT}"
