#!/usr/bin/env bash
# Loopback-cluster smoke test for the real-socket `node` binary.
#
# Boots a 7-process cluster on 127.0.0.1, publishes the deterministic
# 120-object corpus, runs two range checks and one expanding-ring kNN
# check (each asserts recall 1.0 against the locally recomputed exact
# answer), checks that every node is still one thread, that its peak
# resident set (VmHWM) stays under MAX_HWM_KB (16 MB) and that it holds
# at most MAX_FDS descriptors, then shuts the cluster down and requires
# every process to exit cleanly — all within $NODE_SMOKE_BUDGET_SECS
# (default 120).
#
# Per-node logs land in target/node-smoke/; CI uploads them as
# artifacts when the job fails.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
N=7
BUDGET="${NODE_SMOKE_BUDGET_SECS:-120}"
LOGDIR="${NODE_SMOKE_DIR:-$ROOT/target/node-smoke}"
BIN="${NODE_BIN:-$ROOT/target/release/node}"
# A node starts at ~3 MB and bounds its per-query state by a window of
# recent queries, so a peak far above that is a leak.
MAX_HWM_KB=$((16 * 1024))
# At most one inbound and one outbound socket per peer, plus stdin,
# stdout, stderr, the listener and the epoll instance. Every client has
# exited by the time this is checked, so more is a leaked socket.
MAX_FDS=$((2 * (N - 1) + 5))

if [ ! -x "$BIN" ]; then
    echo "node smoke: building $BIN"
    (cd "$ROOT" && cargo build --release -p node)
fi

rm -rf "$LOGDIR"
mkdir -p "$LOGDIR"

PIDS=()

cleanup() {
    status=$?
    for pid in "${PIDS[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    if [ "$status" -ne 0 ]; then
        echo "=== node smoke FAILED (exit $status) after ${SECONDS}s; per-node logs follow ==="
        for log in "$LOGDIR"/node-*.log; do
            echo "--- $log ---"
            cat "$log"
        done
    fi
    exit "$status"
}
trap cleanup EXIT

check_budget() {
    if [ "$SECONDS" -ge "$BUDGET" ]; then
        echo "node smoke: ${BUDGET}s budget exceeded while $1"
        exit 1
    fi
}

# Block until a node's log announces its listen address, then print it.
await_addr() {
    local log="$1"
    while ! grep -q '^listening on ' "$log" 2>/dev/null; do
        check_budget "waiting for $log to announce its address"
        sleep 0.1
    done
    sed -n 's/^listening on //p' "$log" | head -n1
}

echo "node smoke: starting $N-node loopback cluster"
"$BIN" --listen 127.0.0.1:0 --expect "$N" >"$LOGDIR/node-0.log" 2>&1 &
PIDS+=($!)
SEED_ADDR="$(await_addr "$LOGDIR/node-0.log")"
echo "node smoke: seed at $SEED_ADDR"

for i in $(seq 1 $((N - 1))); do
    "$BIN" --listen 127.0.0.1:0 --expect "$N" --join "$SEED_ADDR" \
        >"$LOGDIR/node-$i.log" 2>&1 &
    PIDS+=($!)
done
for i in $(seq 1 $((N - 1))); do
    await_addr "$LOGDIR/node-$i.log" >/dev/null
done

CORPUS="$LOGDIR/corpus.txt"
"$BIN" --gen-corpus "$CORPUS" --objects 120
"$BIN" --connect "$SEED_ADDR" --publish-file "$CORPUS"
check_budget "publishing the corpus"

# Range queries: exact expected-result assertions (recall 1.0 or die).
"$BIN" --connect "$SEED_ADDR" --check-range "0.5,0.5,0.5@0.25" --qid 1 --corpus "$CORPUS"
"$BIN" --connect "$SEED_ADDR" --check-range "0.3,0.7,0.4@0.2" --qid 2 --corpus "$CORPUS"
check_budget "running range checks"

# Expanding-ring k-nearest: the 5 nearest objects, certified exactly.
"$BIN" --connect "$SEED_ADDR" --check-knn "0.6,0.4,0.5@5" --qid 3 --corpus "$CORPUS"
check_budget "running the knn check"

# A node is one readiness loop on one thread; a second thread means a
# hand-off has crept back into the message path.
if [ -r "/proc/$$/status" ]; then
    for i in "${!PIDS[@]}"; do
        status="/proc/${PIDS[$i]}/status"
        threads="$(awk '/^Threads:/ { print $2 }' "$status")"
        hwm_kb="$(awk '/^VmHWM:/ { print $2 }' "$status")"
        fds="$(find "/proc/${PIDS[$i]}/fd" -mindepth 1 -maxdepth 1 | wc -l)"
        echo "node smoke: node $i: $threads thread(s), VmHWM $hwm_kb kB, $fds open fds"
        if [ "$threads" != 1 ]; then
            echo "node smoke: node $i (pid ${PIDS[$i]}) runs $threads threads, expected 1"
            exit 1
        fi
        if [ "$hwm_kb" -gt "$MAX_HWM_KB" ]; then
            echo "node smoke: node $i (pid ${PIDS[$i]}) peaked at $hwm_kb kB, cap $MAX_HWM_KB kB"
            exit 1
        fi
        if [ "$fds" -gt "$MAX_FDS" ]; then
            echo "node smoke: node $i (pid ${PIDS[$i]}) holds $fds descriptors, cap $MAX_FDS"
            exit 1
        fi
    done
    echo "node smoke: every node runs 1 thread, peaked under $MAX_HWM_KB kB and holds at most $MAX_FDS fds"
else
    echo "node smoke: no /proc on this host; thread-count, peak-memory and descriptor checks skipped"
fi

"$BIN" --connect "$SEED_ADDR" --shutdown-cluster

# Every process must exit cleanly, within what remains of the budget.
for i in "${!PIDS[@]}"; do
    pid="${PIDS[$i]}"
    while kill -0 "$pid" 2>/dev/null; do
        check_budget "waiting for node $i (pid $pid) to exit"
        sleep 0.2
    done
    if ! wait "$pid"; then
        echo "node smoke: node $i (pid $pid) exited with a failure"
        exit 1
    fi
done
PIDS=()

echo "node smoke: OK (${SECONDS}s)"
