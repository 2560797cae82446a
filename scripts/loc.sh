#!/usr/bin/env sh
# Non-test Rust line count, the size metric ROADMAP tracks: every
# crates/<crate>/src/**/*.rs up to (not including) its first
# `#[cfg(test)]`, summed per crate and over the workspace. Blank and
# comment lines count; unit tests, integration tests and the benchmark
# package do not. Prints, gates nothing.
#
# Usage: scripts/loc.sh [file.rs ...]   (with files: one count per file)
set -eu
cd "$(dirname "$0")/.."

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
