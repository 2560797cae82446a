#!/usr/bin/env sh
# End-to-end smoke of the multi-process federation: build the real bins,
# spawn 5 `qad` servers on loopback ephemeral ports via `qa-ctl run`,
# replay the seeded workload over TCP, then hold every emitted JSONL
# trace to the strict telemetry contract (`qa-trace summary`: canonical
# re-dump, monotone clocks) with the transport-specific required-event
# lists:
#
#   * driver trace  — one peer_connected + handshake_completed per node,
#     plus the full query lifecycle (assigned, completed, periods);
#   * node traces   — the driver's inbound handshake plus the market's
#     supply computation.
#
# Usage: scripts/net_smoke.sh [workdir]
# The workdir (default: a fresh mktemp dir) keeps the config and traces
# for post-mortem; it is left in place on failure.
set -eu

cd "$(dirname "$0")/.."

workdir="${1:-$(mktemp -d "${TMPDIR:-/tmp}/qa-net-smoke.XXXXXX")}"
mkdir -p "$workdir"
echo "net-smoke: workdir $workdir"

cargo build --release -q --bin qad --bin qa-ctl
cargo build --release -q -p qa-bench --bin qa_trace

./target/release/qa-ctl init > "$workdir/fed.json"

./target/release/qa-ctl run \
    --config "$workdir/fed.json" \
    --qad ./target/release/qad \
    --trace "$workdir/driver.jsonl" \
    --trace-dir "$workdir/traces" \
    > "$workdir/report.json"

grep -q '"clean_shutdown": true' "$workdir/report.json" || {
    echo "net-smoke: federation did not shut down cleanly" >&2
    cat "$workdir/report.json" >&2
    exit 1
}

./target/release/qa_trace summary "$workdir/driver.jsonl" \
    --require peer_connected,handshake_completed,query_assigned,query_completed,period_started

for node_trace in "$workdir"/traces/node*.jsonl; do
    ./target/release/qa_trace summary "$node_trace" \
        --require peer_connected,handshake_completed,supply_computed
done

echo "net-smoke: OK ($workdir)"
