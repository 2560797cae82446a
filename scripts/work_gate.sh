#!/usr/bin/env sh
# Regression gate on how much work the flat engine does, in counts.
#
# Runs the `*_is_pinned` tests of `qa-sim` in release and prints what they
# counted: `BoundaryWork` (what the period boundaries did) and `WaitWork`
# (what the wait list's wakes did) of the repo benchmark's `flat1k` and
# `paper100_overload` reps. The counts are functions of the seed and the
# code, so they repeat exactly on any host. What they catch is a fast path
# that silently stops being taken — a run move that turns one waiter at a
# time, a closed form that walks every lane — which keeps every simulated
# output, and so every golden, and loses only speed: the slip a timing on a
# shared CI host is too noisy to see.
#
# A count that moves with an intended change of algorithm is re-pinned in
# the test, with the reason in the commit message.
set -eu
cd "$(dirname "$0")/.."

if out=$(cargo test -q --release -p qa-sim _is_pinned -- --nocapture 2>&1); then
  # `-o`: a line can open with the dots of tests that finished before it.
  printf '%s\n' "$out" | grep -o 'work-gate: .*'
  echo "work-gate: OK"
else
  printf '%s\n' "$out" >&2
  echo "work-gate: FAIL — a pinned work count moved" >&2
  exit 1
fi
