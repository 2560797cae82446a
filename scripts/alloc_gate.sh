#!/usr/bin/env sh
# Regression gate on heap allocations per query of the flat engine.
#
# Runs the repo benchmark's traced `flat1k` rep at a fixed seed and fails
# when `alloc.calls_per_query` exceeds the ceiling below. The flat engine
# is single-threaded and the trace is a function of the seed, so the count
# repeats exactly from run to run and host to host: unlike a timing, host
# noise cannot trip it. What it catches is an allocation creeping back
# into per-period or per-query code (the period boundary allocates
# nothing; what is counted is the run's construction and amortized
# buffer growth).
#
# The ceiling is 10 % above the value measured when it was last pinned
# (0.21158 at PR 14; 0.25868 before it). Lower it when a change lowers
# the count; raising it needs a reason in the commit message.
set -eu
cd "$(dirname "$0")/.."

CEILING=0.2327

result=$(bash benchmark/run.sh --workload flat1k --seed 7 --seconds 3 --trace 1 2>/dev/null | tail -n 1)
calls=$(printf '%s\n' "$result" |
  sed -n 's/.*"alloc\.calls_per_query":{"value":\([0-9.eE+-]*\).*/\1/p')
if [ -z "$calls" ]; then
  echo "alloc-gate: FAIL — no alloc.calls_per_query in the benchmark result" >&2
  exit 1
fi
if awk -v c="$calls" -v max="$CEILING" 'BEGIN { exit !(c > max) }'; then
  echo "alloc-gate: FAIL — alloc.calls_per_query $calls exceeds the ceiling $CEILING" >&2
  exit 1
fi
echo "alloc-gate: OK — alloc.calls_per_query $calls (ceiling $CEILING)"
