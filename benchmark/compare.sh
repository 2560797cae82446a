#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json: per workload x metric, the ratio of
# set B to set A against the bound in BENCHMARK.json; exits non-zero when
# an end-to-end metric is outside its bound.
exec "$(dirname "$0")/run.sh" compare "$@"
