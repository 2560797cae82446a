#!/usr/bin/env sh
# Validate the telemetry trace contract end to end: run the seeded
# `qa_fig trace_dump` row (CI scale unless QA_SCALE says otherwise) twice,
# requiring both runs to write the same trace and convergence report byte
# for byte, then read the trace with `qa-trace summary`, whose strict
# reader checks every JSONL line — canonical re-dump byte equality,
# monotone timestamps — and require the full event taxonomy that a seeded
# faulty run must produce (market, query-lifecycle and fault events).
#
# Usage: scripts/check_trace.sh [trace.jsonl]
# With an argument, skips the runs and validates that file.
set -eu

cd "$(dirname "$0")/.."

REQUIRED="price_adjusted,supply_computed,request_rejected,query_assigned,query_completed,message_dropped,node_crashed,node_recovered,period_started"

if [ "$#" -ge 1 ]; then
    trace="$1"
else
    seeded="trace_dump.jsonl trace_dump_convergence.json"
    first=$(mktemp -d)
    cargo run -q -p qa-bench --bin qa_fig -- trace_dump
    for f in $seeded; do cp "bench_results/$f" "$first/"; done
    cargo run -q -p qa-bench --bin qa_fig -- trace_dump >/dev/null
    for f in $seeded; do cmp "$first/$f" "bench_results/$f"; done
    rm -r "$first"
    trace="bench_results/trace_dump.jsonl"
fi

cargo run -q -p qa-bench --bin qa_trace -- summary "$trace" --require "$REQUIRED"
