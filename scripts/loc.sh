#!/usr/bin/env sh
# Non-test Rust line count, the size metric ROADMAP tracks: every
# crates/<crate>/src/**/*.rs up to (not including) its first
# `#[cfg(test)]`, summed per crate and over the workspace. Blank and
# comment lines count; unit tests, integration tests and the benchmark
# package do not. Exits 1 when the total is above CEILING.
#
# Usage: scripts/loc.sh [file.rs ...]   (with files: one count per file,
#                                        nothing gated)
set -eu
cd "$(dirname "$0")/.."

# The total at the last PR that moved it. A PR that grows the tree raises
# this number in the same diff; one that shrinks it lowers it.
CEILING=25188

# Lines of the given files ahead of each file's first `#[cfg(test)]`.
count() {
    awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' "$@"
}

for f in "$@"; do
    printf '%6d  %s\n' "$(count "$f")" "$f"
done
[ $# -eq 0 ] || exit 0

total=0
for crate in crates/*; do
    # shellcheck disable=SC2046 # no path here holds a space
    n=$(count $(find "$crate/src" -name '*.rs'))
    printf '%6d  %s\n' "$n" "$crate"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
if [ "$total" -gt "$CEILING" ]; then
    echo "loc: FAIL — $total non-test lines exceed the ceiling $CEILING (scripts/loc.sh)" >&2
    exit 1
fi
