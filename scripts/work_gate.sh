#!/usr/bin/env sh
# Regression gate on how much work the simulator does, in counts.
#
# Runs the `*_is_pinned` tests of `qa-sim` in release and prints what they
# counted: `BoundaryWork` (what the period boundaries did) and `WaitWork`
# (what the wait list's wakes did) of the repo benchmark's `flat1k`,
# `paper100_overload` and `broker10k` reps. The counts are functions of
# the seed and the code, so they repeat exactly on any host. What they
# catch is a fast path that silently stops being taken — a run move that
# turns one waiter at a time, a boundary that solves rows it did not roll
# — which keeps every simulated output, and so every golden, and loses
# only speed: the slip a timing on a shared CI host is too noisy to see.
# `BoundaryWork` counts the rows that ended a period, the eq.-4 supply
# solves of the live ones and the offer-index leaves re-read from the
# fresh supply (the start of the run's reseat included); `WaitWork` the
# wakes, the runs they turned and the waiters given a full attempt.
#
# Each workload must report exactly one `work-gate:` line: a pinned test
# that was renamed or filtered out fails the gate instead of passing it
# unpinned.
#
# A count that moves with an intended change of algorithm is re-pinned in
# the test, with the reason in the commit message.
set -eu
cd "$(dirname "$0")/.."

if ! out=$(cargo test -q --release -p qa-sim _is_pinned -- --nocapture 2>&1); then
  printf '%s\n' "$out" >&2
  echo "work-gate: FAIL — a pinned work count moved" >&2
  exit 1
fi
# `-o`: a line can open with the dots of tests that finished before it.
lines=$(printf '%s\n' "$out" | grep -o 'work-gate: .*' || true)
for name in flat1k paper100_overload broker10k; do
  if [ "$(printf '%s\n' "$lines" | grep -c "^work-gate: $name ")" -ne 1 ]; then
    printf '%s\n' "$out" >&2
    echo "work-gate: FAIL — missing $name" >&2
    exit 1
  fi
done
printf '%s\n' "$lines"
echo "work-gate: OK"
