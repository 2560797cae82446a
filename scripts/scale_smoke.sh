#!/usr/bin/env sh
# CI smoke of the sharded federation engine's scaling sweep:
#
#   1. build and run `fig_scale --quick` (small sizes, seconds not
#      minutes) at QA_THREADS=1 and QA_THREADS=8 and require the
#      timing-free determinism artifact to be byte-identical — the
#      sharded engine's output must not depend on how the shard and
#      solver layers share the machine;
#   2. `cmp` that artifact against the checked-in
#      goldens/fig_scale_quick_determinism.json. `fig_scale` runs with
#      telemetry off, so this is the one gate that pins the pure-market
#      path (offer index, boundary rejection replay) — the path the repo
#      benchmark times — from commit to commit; the golden trace runs
#      with telemetry on and only ever sees the eager path;
#   3. the S=1 rows of the artifact against a flat-engine rerun are the
#      library test `sharded_single_shard_is_byte_identical_to_flat
#      _engine`'s job, covered by the determinism suite — here `--quick`
#      only re-checks artifact stability across shard layouts (S=1 vs
#      S=4/S=8) in one run.
#
# Usage: scripts/scale_smoke.sh [--bless]
# --bless rewrites the golden from the fresh artifact; commit the diff
# together with the behaviour change that caused it.
#
# The timed artifact (bench_results/fig_scale.json) is left in place for
# upload; the determinism artifact is the compared one.
set -eu
cd "$(dirname "$0")/.."

cargo build --release -q -p qa-bench --bin fig_scale

echo "scale-smoke: fig_scale --quick at QA_THREADS=1"
QA_THREADS=1 ./target/release/fig_scale --quick
cp bench_results/fig_scale_determinism.json bench_results/fig_scale_determinism.t1.json

echo "scale-smoke: fig_scale --quick at QA_THREADS=8"
QA_THREADS=8 ./target/release/fig_scale --quick

if ! cmp -s bench_results/fig_scale_determinism.json bench_results/fig_scale_determinism.t1.json; then
  echo "scale-smoke: FAIL — determinism artifact differs between QA_THREADS=1 and 8" >&2
  diff bench_results/fig_scale_determinism.t1.json bench_results/fig_scale_determinism.json >&2 || true
  exit 1
fi
rm -f bench_results/fig_scale_determinism.t1.json
echo "scale-smoke: determinism artifact byte-identical across thread budgets"

golden=goldens/fig_scale_quick_determinism.json
if [ "${1:-}" = "--bless" ]; then
  cp bench_results/fig_scale_determinism.json "$golden"
  echo "scale-smoke: blessed $golden"
elif ! cmp -s bench_results/fig_scale_determinism.json "$golden"; then
  echo "scale-smoke: FAIL — determinism artifact differs from $golden" >&2
  diff "$golden" bench_results/fig_scale_determinism.json >&2 || true
  echo "scale-smoke: if the behaviour change is intended, rerun with --bless" >&2
  exit 1
else
  echo "scale-smoke: determinism artifact matches $golden"
fi
