#!/usr/bin/env bash
# Quick benchmark smoke run, in two steps:
#
#   1. the `spmv` criterion group for a short wall-clock budget, leaving
#      serial and dist4 results under target/criterion-shim/;
#   2. the `guards` driver (crates/bench/src/bin/guards.rs), which runs
#      the nine paired A/B guards — probe, fault, flight, trace,
#      checkpoint, ledger, trsv, format, multirhs — each in
#      order-alternated pairs so machine-load drift cancels, and writes
#      BENCH_spmv.json (this run's SpMV throughput under the label) plus
#      one BENCH_*.json record per guard.
#
# Timing targets only WARN (shared machines are noisy). The run fails on
# a bit-identity miss (trsv, format, multirhs) or on a missing stored
# baseline (fault's no-faults gate, and the trace, checkpoint and ledger
# off paths) unless BENCH_ALLOW_MISSING_BASELINE=1. The gate rules and
# targets are documented in crates/bench/src/guards.rs.
#
# Usage: scripts/bench_smoke.sh [pre|post]   (default: post)
#
# BENCH_spmv.json accumulates one entry per label, so running once before a
# performance change with "pre" and once after with "post" leaves both
# baselines side by side for comparison.
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:-post}"
# Absolute path: cargo runs bench binaries with cwd = the package dir, so a
# relative CRITERION_SHIM_OUT would land under crates/bench/. The guards
# driver reads the results back from target/criterion-shim/.
OUT_DIR="$(pwd)/target/criterion-shim"
rm -rf "$OUT_DIR"

echo "== spmv bench smoke (label: $LABEL) =="
BENCH_MEASURE_MS="${BENCH_MEASURE_MS:-600}" BENCH_WARMUP_MS="${BENCH_WARMUP_MS:-150}" \
CRITERION_SHIM_OUT="$OUT_DIR" \
  cargo bench -q -p lisi-bench --bench kernels -- spmv

cargo run -q -p lisi-bench --release --bin guards -- --label "$LABEL"
