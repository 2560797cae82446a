#!/usr/bin/env bash
# Builds the benchmark and runs it from the repo root.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last stdout line is the result as one JSON object
#   benchmark/run.sh [--seed N] [--seconds S] [--quick] [--trace]
#       all four workloads, a table, benchmark/out/result_seed<N>.json
#   benchmark/run.sh compare A.json B.json
#       two result sets against the bounds in BENCHMARK.json
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/qa-benchmark" "$@"
