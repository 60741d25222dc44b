#!/usr/bin/env sh
# Spawn a 2-shard loopback cluster (cluster_shard x2 + cluster_router),
# drive it with serve_loadgen --cluster, and record the result. The
# loadgen first verifies that every model-zoo network returns bit-exact
# logits through the cluster (nonzero exit on any mismatch — this is
# the CI cluster smoke), then measures closed-loop throughput.
#
# The smoke also exercises the health plane end to end: shard s1 runs
# with an absurdly tight queue-latency SLO, so after traffic it must
# report `degraded` through `trace_dump --health` (which still passes
# --assert-sane — degraded is what spillover routing is for). Both
# shards run with the crash flight recorder armed; s1 is terminated at
# the end and its shutdown dump is checked for parseability and for
# the level=warn event its health warning recorded.
#
# Usage: bench/cluster_smoke.sh BUILD_DIR [OUT_JSON]
#   PF_CLUSTER_PORT_BASE  first of three consecutive ports (default 47410)
#   PF_CLUSTER_REQUESTS   throughput-phase requests        (default 96)
#   PF_CLUSTER_WIDTH      zoo width multiplier             (default 8)
#   PF_CLUSTER_TRACE_OUT  where trace_dump writes the metrics + trace
#                         artifact (default /tmp/pf_cluster_trace.txt)
#   PF_CLUSTER_FLIGHT_DIR directory for per-shard flight-recorder
#                         dumps (default /tmp)
set -eu

build_dir=${1:?usage: bench/cluster_smoke.sh BUILD_DIR [OUT_JSON]}
out=${2:-BENCH_cluster.json}
base=${PF_CLUSTER_PORT_BASE:-47410}
requests=${PF_CLUSTER_REQUESTS:-96}
width=${PF_CLUSTER_WIDTH:-8}
trace_out=${PF_CLUSTER_TRACE_OUT:-/tmp/pf_cluster_trace.txt}
flight_dir=${PF_CLUSTER_FLIGHT_DIR:-/tmp}

models="small-vgg,small-alexnet,small-resnet"
pids=""
s1_pid=""
cleanup() {
    # shellcheck disable=SC2086
    [ -n "$pids" ] && kill $pids 2>/dev/null || true
    wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM

rm -f "$flight_dir/pf_flight_s0.log" "$flight_dir/pf_flight_s1.log"

# Both shards run with a micro-batch cap > 1 (pinned explicitly, not
# left to the default) so the fused-dispatch gate below is meaningful.
PF_FLIGHT_RECORDER="$flight_dir/pf_flight_s0.log" \
    "$build_dir/cluster_shard" --name s0 --port $((base + 1)) \
    --models "$models" --width "$width" --workers 1 --max-batch 8 &
pids="$pids $!"
# s1 carries a 1µs queue-p99 SLO: any real traffic trips it, which is
# exactly what the degraded-over-the-wire gate below wants to see.
PF_FLIGHT_RECORDER="$flight_dir/pf_flight_s1.log" \
    "$build_dir/cluster_shard" --name s1 --port $((base + 2)) \
    --models "$models" --width "$width" --workers 1 --max-batch 8 \
    --slo-queue-p99-us 0.001 &
s1_pid=$!
pids="$pids $s1_pid"

# The router retries shard connections internally, so no ready-poll
# is needed; same for the loadgen connecting to the router.
"$build_dir/cluster_router" --port "$base" \
    --shards "s0=127.0.0.1:$((base + 1)),s1=127.0.0.1:$((base + 2))" &
pids="$pids $!"

"$build_dir/serve_loadgen" --cluster "127.0.0.1:$base" \
    --requests "$requests" --clients 4 --width "$width" \
    --metrics --out "$out"

# Pull the fleet's merged metrics + trace rings + health through the
# router and gate on sanity: requests completed, cache counters
# well-formed, no shard unhealthy. The artifact survives for CI to
# upload when a later step fails.
"$build_dir/trace_dump" "127.0.0.1:$base" --assert-sane --health \
    --out "$trace_out"

# The throughput phase must have exercised the fused micro-batch
# path: the merged fleet metrics have to show at least one dequeued
# batch of size > 1 dispatched through Network::logitsBatch.
fused=$(sed -n \
    's/^pf_serve_fused_batch_total[[:space:]]*\([0-9][0-9]*\).*/\1/p' \
    "$trace_out" | head -n 1)
if [ -z "$fused" ] || [ "$fused" -eq 0 ]; then
    echo "FAIL: pf_serve_fused_batch_total is ${fused:-missing} in" \
        "$trace_out; no dispatch fused despite --max-batch 8" >&2
    exit 1
fi

# The tight SLO on s1 must have tripped: the fleet health section has
# to report a degraded state with s1's queue_p99_us violation.
grep -q "state=degraded" "$trace_out" || {
    echo "FAIL: no degraded shard in $trace_out despite 1µs SLO" >&2
    exit 1
}
grep -q "violation s1:queue_p99_us" "$trace_out" || {
    echo "FAIL: s1 queue_p99_us violation missing from $trace_out" >&2
    exit 1
}

# Kill s1 the way an orchestrator would and check that its graceful
# shutdown left a parseable flight-recorder artifact behind.
kill -TERM "$s1_pid"
wait "$s1_pid" 2>/dev/null || true
pids=$(echo "$pids" | sed "s/ $s1_pid//")
[ -s "$flight_dir/pf_flight_s1.log" ] || {
    echo "FAIL: s1 left no flight-recorder dump" >&2
    exit 1
}
grep -q "^pf_flight_recorder version=1 reason=shutdown" \
    "$flight_dir/pf_flight_s1.log" || {
    echo "FAIL: unparseable flight-recorder header in" \
        "$flight_dir/pf_flight_s1.log" >&2
    exit 1
}
# Daemon warnings reach the event store the recorder dumps: the
# shard-health pf_warn that s1's 1µs SLO forced must be in the dump.
grep -q '^event ts=[0-9]* level=warn trace=[0-9a-f]* msg="shard s1 health degraded: .*queue_p99_us' \
    "$flight_dir/pf_flight_s1.log" || {
    echo "FAIL: s1's shard-health warning is not a level=warn event" \
        "in $flight_dir/pf_flight_s1.log" >&2
    exit 1
}

echo "Wrote $out"
