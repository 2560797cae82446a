#!/usr/bin/env sh
# Golden-trace replay gate (`qa-trace golden`): re-run the simulator's golden spec and
# require the emitted JSONL to be byte-for-byte identical to the
# checked-in golden (goldens/trace_seed2007.jsonl). Any behavioural
# drift — a perturbed pricer constant, a reordered reduction, an
# off-by-one in the period loop — fails here with a pointed report
# naming the first diverging event.
#
# Usage: scripts/check_golden.sh [--bless]
# --bless regenerates the golden in place; commit the diff together
# with the behaviour change that caused it.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--bless" ]; then
    cargo run -q --release -p qa-bench --bin qa_trace -- golden --bless
else
    cargo run -q --release -p qa-bench --bin qa_trace -- golden
fi
