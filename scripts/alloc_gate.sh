#!/usr/bin/env sh
# Regression gate on heap allocations per query of the flat engine.
#
# Runs the repo benchmark's traced `flat1k` and `paper100_overload` reps at
# a fixed seed and fails when `alloc.calls_per_query` (and, for the
# overload, `alloc.bytes_per_query`) exceeds the ceilings below. The flat
# engine is single-threaded and the trace is a function of the seed, so
# the counts repeat exactly from run to run and host to host: unlike a
# timing, host noise cannot trip them. What they catch is an allocation
# creeping back into per-period or per-query code (the period boundary
# allocates nothing; what is counted is the run's construction and
# amortized buffer growth) — and, on the overload, refused queries
# finding their way back into the event queue: parked there, 60 retries
# per query grew the calendar ring to 6 054 B per query; on the wait list
# they cost 78.
#
# Each ceiling is 10 % above the value measured when it was last pinned
# (PR 17, the sellers in one column block — a run's construction stops
# allocating nine vectors per node: flat1k 0.18638 -> 0.06133 calls;
# paper100_overload 0.09363 -> 0.05313 calls, 77.69 -> 75.16 B. PR 16:
# 0.21153 -> 0.18638; 0.28488 -> 0.09363, 6 053.6 -> 77.69 B). Lower one
# when a change lowers the count; raising one needs a reason in the
# commit message.
set -eu
cd "$(dirname "$0")/.."

status=0
# Fails when metric `$2` of the traced result `$1` is missing or above `$3`.
check() {
  value=$(printf '%s\n' "$1" | sed -n "s/.*\"$2\":{\"value\":\([0-9.eE+-]*\).*/\1/p")
  if [ -z "$value" ]; then
    echo "alloc-gate: FAIL — no $2 in the $workload result" >&2
    status=1
  elif awk -v c="$value" -v max="$3" 'BEGIN { exit !(c > max) }'; then
    echo "alloc-gate: FAIL — $workload $2 $value exceeds the ceiling $3" >&2
    status=1
  else
    echo "alloc-gate: OK — $workload $2 $value (ceiling $3)"
  fi
}

# workload, ceiling on calls per query, ceiling on bytes per query (or -)
while read -r workload calls bytes; do
  result=$(bash benchmark/run.sh --workload "$workload" --seed 7 --seconds 3 --trace 1 2>/dev/null | tail -n 1)
  check "$result" alloc.calls_per_query "$calls"
  [ "$bytes" = - ] || check "$result" alloc.bytes_per_query "$bytes"
done <<ROWS
flat1k 0.0675 -
paper100_overload 0.0584 82.68
ROWS
exit $status
