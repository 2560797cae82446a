#!/usr/bin/env sh
# CI smoke of the scaling sweep (flat engine vs the sharded engine under
# each parent market):
#
#   1. build and run `QA_SCALE=ci qa_fig fig_scale fig_scale_trace` (small
#      sizes, seconds not minutes) at QA_THREADS=1 and QA_THREADS=8 and
#      require both the timing-free determinism artifact and the broker
#      telemetry trace to be byte-identical — shards share nothing within a period and the
#      parent clears serially at the boundary, so neither may depend on
#      how many workers step the shards;
#   2. hold the broker trace to the strict telemetry contract
#      (`qa-trace summary`: canonical re-dump, monotone clocks) and
#      require the broker-tier event taxonomy to actually appear.
#
# Both files' bytes from commit to commit are the test suite's job: the
# determinism artifact against goldens/fig_scale_quick_determinism.json
# (`cargo test -p qa-bench --test determinism fig_scale_quick`), the
# broker trace against the committed figures/fig_scale_trace.jsonl
# (`cargo test -p qa-bench --test figures`). The timed artifact
# (bench_results/fig_scale.json) is left in place for upload.
set -eu
cd "$(dirname "$0")/.."

cargo build --release -q -p qa-bench --bin qa_fig --bin qa_trace

echo "scale-smoke: qa_fig fig_scale fig_scale_trace at QA_THREADS=1"
QA_SCALE=ci QA_THREADS=1 ./target/release/qa_fig fig_scale fig_scale_trace
t1=$(mktemp -d)
cp bench_results/fig_scale_determinism.json bench_results/fig_scale_trace.jsonl "$t1"

echo "scale-smoke: qa_fig fig_scale fig_scale_trace at QA_THREADS=8"
QA_SCALE=ci QA_THREADS=8 ./target/release/qa_fig fig_scale fig_scale_trace

for f in fig_scale_determinism.json fig_scale_trace.jsonl; do
  if ! cmp -s "$t1/$f" "bench_results/$f"; then
    echo "scale-smoke: FAIL — $f differs between QA_THREADS=1 and 8" >&2
    diff "$t1/$f" "bench_results/$f" >&2 || true
    exit 1
  fi
done
rm -rf "$t1"
echo "scale-smoke: artifacts byte-identical across thread budgets"

./target/release/qa_trace summary bench_results/fig_scale_trace.jsonl \
  --require broker_bid,parent_cleared,demand_escalated
echo "scale-smoke: broker trace passes the strict telemetry contract"
