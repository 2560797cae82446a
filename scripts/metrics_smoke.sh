#!/usr/bin/env sh
# End-to-end smoke of the observability plane: build the real bins, then
# exercise every way to observe a federation:
#
#   1. `qa-ctl stats --metrics` — spawn 5 `qad` servers (each with a
#      `/metrics` HTTP listener), scrape their registries over the wire
#      (StatsRequest/StatsReply), merge into a fleet report, and hold the
#      report to the required metric families with `check_metrics`
#      (pre-registered families must be present even on an idle fleet);
#   2. a single live `qad --metrics-addr` — validate the Prometheus text
#      exposition line-by-line plus the 404 route (`check_metrics --fetch`),
#      and attach to it with `qa-ctl stats --addrs` without perturbing it;
#   3. a traced `qa-ctl run` — replay the seeded workload, then analyze
#      the driver trace offline with `qa-trace`, which validates it as it
#      reads (census with the query lifecycle required, span rollups,
#      filter round-trip back through the analyzer).
#
# Usage: scripts/metrics_smoke.sh [workdir]
# The workdir (default: a fresh mktemp dir) keeps every artifact for
# post-mortem; it is left in place on failure.
set -eu

cd "$(dirname "$0")/.."

workdir="${1:-$(mktemp -d "${TMPDIR:-/tmp}/qa-metrics-smoke.XXXXXX")}"
mkdir -p "$workdir"
echo "metrics-smoke: workdir $workdir"

cargo build --release -q --bin qad --bin qa-ctl
cargo build --release -q -p qa-bench --bin check_metrics --bin qa_trace

./target/release/qa-ctl init > "$workdir/fed.json"

# --- 1. fleet scrape over the wire, idle fleet, with /metrics listeners ---
./target/release/qa-ctl stats \
    --config "$workdir/fed.json" \
    --qad ./target/release/qad \
    --metrics \
    > "$workdir/stats.json" 2> "$workdir/stats.log"

grep -q "metrics endpoint http://" "$workdir/stats.log" || {
    echo "metrics-smoke: no metrics endpoints announced" >&2
    cat "$workdir/stats.log" >&2
    exit 1
}

./target/release/check_metrics "$workdir/stats.json" --nodes 5

# Watch mode: two scrape rounds, one compact JSON report per line.
./target/release/qa-ctl stats \
    --config "$workdir/fed.json" \
    --qad ./target/release/qad \
    --watch --rounds 2 --interval-ms 200 \
    > "$workdir/watch.jsonl" 2> /dev/null
[ "$(wc -l < "$workdir/watch.jsonl")" -eq 2 ] || {
    echo "metrics-smoke: --watch --rounds 2 emitted $(wc -l < "$workdir/watch.jsonl") lines, want 2" >&2
    exit 1
}

# --- 2. live exposition endpoint + non-perturbing attach ---
./target/release/qad --listen 127.0.0.1:0 --node-id 0 \
    --config "$workdir/fed.json" --metrics-addr 127.0.0.1:0 \
    > "$workdir/qad.out" 2> "$workdir/qad.err" &
qad_pid=$!
i=0
while ! grep -q "^qad metrics " "$workdir/qad.out" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "metrics-smoke: qad never announced its metrics endpoint" >&2
        cat "$workdir/qad.err" >&2
        kill "$qad_pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
listen_addr="$(awk '/^qad listening /{print $3}' "$workdir/qad.out")"
metrics_addr="$(awk '/^qad metrics /{print $3}' "$workdir/qad.out")"

./target/release/check_metrics "$workdir/stats.json" --nodes 5 --fetch "$metrics_addr"

# Attach mode never sends Shutdown: the qad must still be alive after.
./target/release/qa-ctl stats --addrs "$listen_addr" \
    > "$workdir/attach.json" 2> /dev/null
grep -q '"alive": 1' "$workdir/attach.json" || {
    echo "metrics-smoke: attach-mode scrape did not report the node alive" >&2
    cat "$workdir/attach.json" >&2
    exit 1
}
kill -0 "$qad_pid" 2>/dev/null || {
    echo "metrics-smoke: attach-mode scrape killed the observed qad" >&2
    exit 1
}
kill "$qad_pid" 2>/dev/null || true
wait "$qad_pid" 2>/dev/null || true

# --- 3. traced workload replay + offline qa-trace analysis ---
./target/release/qa-ctl run \
    --config "$workdir/fed.json" \
    --qad ./target/release/qad \
    --trace "$workdir/driver.jsonl" \
    > "$workdir/report.json"

./target/release/qa_trace summary "$workdir/driver.jsonl" --json \
    --require query_assigned,query_completed > "$workdir/trace_summary.json"
./target/release/qa_trace spans "$workdir/driver.jsonl" > "$workdir/spans.txt"
grep -q "assigned→completed" "$workdir/spans.txt"

# `filter` emits canonical JSONL: it must feed back into the analyzer.
./target/release/qa_trace filter "$workdir/driver.jsonl" --kind query_assigned \
    > "$workdir/assigned.jsonl"
./target/release/qa_trace summary "$workdir/assigned.jsonl" > /dev/null

echo "metrics-smoke: OK ($workdir)"
