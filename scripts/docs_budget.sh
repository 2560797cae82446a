#!/usr/bin/env sh
# Byte size of the documents a reader starts from, the prose budget
# ROADMAP tracks: DESIGN, CHANGES, EXPERIMENTS and README each stay at or
# below the ceiling written here. Exits 1 naming each one above it.
#
# Usage: scripts/docs_budget.sh
set -eu
cd "$(dirname "$0")/.."

status=0

# `check DOC CEILING`: prints DOC's size and fails the run above CEILING.
# The ceilings are the sizes at the last PR that moved each document. A
# PR that grows a document raises its ceiling in the same diff; one that
# shrinks it lowers it.
check() {
    n=$(wc -c < "$1" | tr -d ' ')
    printf '%7d  %s (ceiling %d)\n' "$n" "$1" "$2"
    if [ "$n" -gt "$2" ]; then
        echo "docs_budget: FAIL — $1 is $n bytes, above its ceiling $2 (scripts/docs_budget.sh)" >&2
        status=1
    fi
}

check DESIGN.md 41558
check CHANGES.md 61746
check EXPERIMENTS.md 29788
check README.md 11248
exit "$status"
