#!/usr/bin/env bash
# Workspace CI: formatting, lints, tests, and the `corun lint` gate over
# the shipped example specs and fixtures.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (deny warnings + curated pedantic subset)"
# Beyond the default lint set, a curated slice of clippy::pedantic the
# workspace keeps at zero. unsafe_code is forbidden workspace-wide via
# [workspace.lints] (sole exception: the CLI's libc signal shim).
PEDANTIC=(
    -D clippy::semicolon_if_nothing_returned
    -D clippy::redundant_closure_for_method_calls
    -D clippy::map_unwrap_or
    -D clippy::explicit_iter_loop
    -D clippy::needless_continue
    -D clippy::unnested_or_patterns
    -D clippy::uninlined_format_args
    -D clippy::manual_let_else
    -D clippy::elidable_lifetime_names
    -D clippy::cloned_instead_of_copied
    -D clippy::flat_map_option
    -D clippy::inefficient_to_string
    -D clippy::redundant_else
    -D clippy::sliced_string_as_bytes
)
cargo clippy --workspace --all-targets -- -D warnings "${PEDANTIC[@]}"

echo "== tier-1: build + tests"
cargo build --release
cargo test -q

echo "== corun-bench: build and test the benchmark against this workspace"
# corun-bench is a package of its own (its own Cargo.lock, outside the
# workspace), so the workspace build above never compiles it. --locked
# fails here, not in a benchmark run, when a change to an API it calls
# or to the dependency graph behind its lockfile breaks it.
cargo test -q --release --locked --manifest-path corun-bench/Cargo.toml

echo "== fleet RPC budget: load-carrying replies and protocol-2 compatibility"
# Submit and status replies carry the shard's `load`, which replaces the
# per-round `metrics` poll; a daemon whose replies lack it must still
# drain exactly once through polls and the terminal-count gate.
cargo test -q --release -p corun-fleet --test rpc_budget
cargo test -q --release -p corun-serve --lib load_equals_the_metrics_counters

echo "== sanitizer-feature tests"
cargo test -q -p corun-verify -p apu-sim --features corun-verify/sanitize

echo "== corun lint: shipped inputs must be clean"
CORUN=target/release/corun
cargo build --release -p corun-cli
$CORUN lint
$CORUN lint --machine kaveri
$CORUN lint --spec examples/specs/rodinia_small.spec

echo "== corun lint --wall-clock: no unmarked time/entropy reads (SRV011)"
# Deterministic replay (docs/REPLAY.md) requires decision paths to take
# time and randomness only through injected sources.
$CORUN lint --wall-clock

echo "== corun lint: broken fixtures must fail"
expect_fail() {
    if "$@" >/dev/null 2>&1; then
        echo "FAIL: expected non-zero exit: $*" >&2
        exit 1
    fi
}
expect_fail $CORUN lint --spec examples/specs/broken.spec
expect_fail $CORUN lint --config examples/specs/broken_machine.cfg
expect_fail $CORUN lint --spec examples/specs/rodinia_small.spec \
    --schedule examples/specs/broken_duplicate.sched
expect_fail $CORUN lint --spec examples/specs/rodinia_small.spec \
    --schedule examples/specs/broken_schedule.sched

echo "== corun mc: prove the smoke scope, convict every seeded bug"
# --smoke proves the clean scope exhaustively, then seeds each known-bad
# transition and requires a minimal MC0xx counterexample for it — a
# checker that cannot find planted bugs proves nothing.
$CORUN mc --smoke
expect_fail $CORUN mc --jobs 2 --seed-bug double-dispatch

echo "== schedule certificates: issue, verify, reject tampering"
CERT=$(mktemp)
$CORUN schedule --workload sec3 --cap 15 --fast --method hcs+ --cert "$CERT" >/dev/null
$CORUN lint --cert "$CERT"
sed 's/makespan_s = /makespan_s = 9/' "$CERT" >"$CERT.tampered"
expect_fail $CORUN lint --cert "$CERT.tampered"
rm -f "$CERT" "$CERT.tampered"

echo "== corun serve: daemon smoke test"
SERVE_LOG=$(mktemp)
$CORUN serve --fast --port 0 --queue 4 >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
stop_daemon() {
    kill "$SERVE_PID" 2>/dev/null || true
}
trap stop_daemon EXIT

# The daemon prints `listening on HOST:PORT` once bound; wait for it.
ADDR=""
for _ in $(seq 1 150); do
    ADDR=$(sed -n 's/^listening on //p' "$SERVE_LOG")
    [ -n "$ADDR" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "FAIL: daemon exited during startup" >&2
        cat "$SERVE_LOG" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$ADDR" ]; then
    echo "FAIL: daemon did not report its address within 30s" >&2
    cat "$SERVE_LOG" >&2
    exit 1
fi

# Queue bound: an 8-job burst against --queue 4 must bounce, atomically.
# --no-retry: the burst can never fit, so backing off would only stall CI.
SUBMIT_ERR=$(mktemp)
if $CORUN submit --addr "$ADDR" --no-retry --spec examples/specs/burst_overflow.spec \
    >/dev/null 2>"$SUBMIT_ERR"; then
    echo "FAIL: oversized burst was admitted past the queue bound" >&2
    exit 1
fi
grep -q "queue_full" "$SUBMIT_ERR" || {
    echo "FAIL: expected queue_full backpressure, got:" >&2
    cat "$SUBMIT_ERR" >&2
    exit 1
}

# A fitting workload drains end to end (submit -> dispatch -> done).
timeout 120 $CORUN submit --addr "$ADDR" \
    --spec examples/specs/rodinia_small.spec --wait --timeout 90 >/dev/null

# Job status and the metrics snapshot must be well-formed JSON with the
# expected accounting (4 completed, empty queue, rejections recorded).
timeout 30 $CORUN status --addr "$ADDR" --id 0 | grep -q '"state":"done"'
METRICS=$(timeout 30 $CORUN status --addr "$ADDR")
echo "$METRICS" | grep -q '"completed":4' || {
    echo "FAIL: metrics completed != 4: $METRICS" >&2
    exit 1
}
echo "$METRICS" | grep -q '"queue_depth":0' || {
    echo "FAIL: metrics queue not drained: $METRICS" >&2
    exit 1
}
echo "$METRICS" | grep -q '"rejected":8' || {
    echo "FAIL: metrics missing the bounced burst: $METRICS" >&2
    exit 1
}

# Job classes: the model holds one class per distinct (program, scale)
# pair admitted. rodinia_small.spec has four; the bounced burst never
# reached the model, and submitting the same four again adds none.
timeout 120 $CORUN submit --addr "$ADDR" \
    --spec examples/specs/rodinia_small.spec --wait --timeout 90 >/dev/null
METRICS=$(timeout 30 $CORUN status --addr "$ADDR")
echo "$METRICS" | grep -q '"completed":8' || {
    echo "FAIL: metrics completed != 8 after the resubmit: $METRICS" >&2
    exit 1
}
echo "$METRICS" | grep -q '"classes":4,' || {
    echo "FAIL: metrics classes != 4 distinct (program, scale) pairs: $METRICS" >&2
    exit 1
}

# Clean shutdown: the daemon must ack and exit on its own.
timeout 30 $CORUN shutdown --addr "$ADDR"
for _ in $(seq 1 150); do
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "FAIL: daemon still running 30s after shutdown request" >&2
    kill -9 "$SERVE_PID"
    exit 1
fi
trap - EXIT
rm -f "$SERVE_LOG" "$SUBMIT_ERR"

echo "== corun serve: a daemon whose journal fails admits nothing"
# /dev/full fails every write with ENOSPC, so the journal header never
# lands and the daemon starts in the fail-stop state: every submit must
# bounce with the SRV007 journal error.
FULL_LOG=$(mktemp)
FULL_ERR=$(mktemp)
$CORUN serve --fast --port 0 --journal /dev/full >"$FULL_LOG" 2>&1 &
FULL_PID=$!
trap 'kill "$FULL_PID" 2>/dev/null || true' EXIT
FULL_ADDR=""
for _ in $(seq 1 150); do
    FULL_ADDR=$(sed -n 's/^listening on //p' "$FULL_LOG")
    [ -n "$FULL_ADDR" ] && break
    if ! kill -0 "$FULL_PID" 2>/dev/null; then
        echo "FAIL: /dev/full daemon exited during startup" >&2
        cat "$FULL_LOG" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$FULL_ADDR" ]; then
    echo "FAIL: /dev/full daemon did not report its address within 30s" >&2
    cat "$FULL_LOG" >&2
    exit 1
fi
if timeout 30 $CORUN submit --addr "$FULL_ADDR" --no-retry \
    --spec examples/specs/rodinia_small.spec >/dev/null 2>"$FULL_ERR"; then
    echo "FAIL: a daemon with a failed journal admitted work" >&2
    exit 1
fi
grep -q "journal_failed: SRV007" "$FULL_ERR" || {
    echo "FAIL: expected the SRV007 journal error, got:" >&2
    cat "$FULL_ERR" >&2
    exit 1
}
kill "$FULL_PID"
wait "$FULL_PID" 2>/dev/null || true
trap - EXIT
rm -f "$FULL_LOG" "$FULL_ERR"

echo "== corun serve: chaos smoke (faults + kill -9 + --recover)"
CHAOS_LOG=$(mktemp)
CHAOS_JOURNAL=$(mktemp)
CHAOS_SPEC=examples/specs/chaos_smoke.spec

wait_for_addr() {
    # Prints the HOST:PORT a daemon logged, or fails after ~30s.
    local log=$1 pid=$2 addr=""
    for _ in $(seq 1 150); do
        addr=$(sed -n 's/^listening on //p' "$log")
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "FAIL: daemon exited during startup" >&2
            cat "$log" >&2
            return 1
        fi
        sleep 0.2
    done
    if [ -z "$addr" ]; then
        echo "FAIL: daemon did not report its address within 30s" >&2
        cat "$log" >&2
        return 1
    fi
    echo "$addr"
}

metric() {
    # metric '<json>' completed -> the integer value, or empty.
    echo "$1" | sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p"
}

$CORUN serve --fast --port 0 --machines 2 --journal "$CHAOS_JOURNAL" \
    --fault-plan "$CHAOS_SPEC" >"$CHAOS_LOG" 2>&1 &
CHAOS_PID=$!
trap 'kill -9 "$CHAOS_PID" 2>/dev/null || true' EXIT
CHAOS_ADDR=$(wait_for_addr "$CHAOS_LOG" "$CHAOS_PID")

# Submit the faulted batch, then hard-kill the daemon mid-flight: no
# drain, no goodbye — only the journal survives.
timeout 60 $CORUN submit --addr "$CHAOS_ADDR" --spec "$CHAOS_SPEC" >/dev/null
kill -9 "$CHAOS_PID"
wait "$CHAOS_PID" 2>/dev/null || true

# The kill -9'd journal is an arbitrary record-boundary prefix (possibly
# with a torn tail); its valid records must already replay with zero
# divergence, before any recovery runs.
timeout 60 $CORUN replay "$CHAOS_JOURNAL" --quiet || {
    echo "FAIL: kill -9 journal prefix did not replay cleanly" >&2
    timeout 60 $CORUN replay "$CHAOS_JOURNAL" >&2 || true
    exit 1
}

# Recovery is the replay fold: a copy with one mid-history `accept` line
# deleted (an id gap the causality check cannot see) must be refused by
# both — `corun replay` with RPL003, `serve --recover` with an SRV009
# error and the copy's bytes kept at `<copy>.refused`.
GAP_JOURNAL=$(mktemp)
GAP_LINE=$(grep -n '^{"t":"accept"' "$CHAOS_JOURNAL" | sed -n 2p | cut -d: -f1)
[ -n "$GAP_LINE" ] || {
    echo "FAIL: the kill -9 journal holds fewer than two accepts" >&2
    exit 1
}
sed "${GAP_LINE}d" "$CHAOS_JOURNAL" >"$GAP_JOURNAL"
if GAP_OUT=$(timeout 60 $CORUN replay "$GAP_JOURNAL" 2>&1); then
    echo "FAIL: a journal with an accept-id gap replayed cleanly: $GAP_OUT" >&2
    exit 1
fi
echo "$GAP_OUT" | grep -q 'RPL003' || {
    echo "FAIL: an accept-id gap did not raise RPL003: $GAP_OUT" >&2
    exit 1
}
cp "$GAP_JOURNAL" "$GAP_JOURNAL.orig"
$CORUN serve --fast --port 0 --machines 2 --journal "$GAP_JOURNAL" --recover \
    >"$CHAOS_LOG" 2>&1 &
GAP_PID=$!
trap 'kill -9 "$GAP_PID" 2>/dev/null || true' EXIT
GAP_ADDR=$(wait_for_addr "$CHAOS_LOG" "$GAP_PID")
GAP_DIAG=$(timeout 30 $CORUN status --addr "$GAP_ADDR" --diag)
timeout 30 $CORUN shutdown --addr "$GAP_ADDR" >/dev/null
wait "$GAP_PID" 2>/dev/null || true
trap - EXIT
echo "$GAP_DIAG" | grep -q '"code":"SRV009","severity":"error"' || {
    echo "FAIL: recovery of an accept-id gap raised no SRV009 error: $GAP_DIAG" >&2
    exit 1
}
cmp -s "$GAP_JOURNAL.orig" "$GAP_JOURNAL.refused" || {
    echo "FAIL: the refused journal was not kept whole at $GAP_JOURNAL.refused" >&2
    exit 1
}
rm -f "$GAP_JOURNAL" "$GAP_JOURNAL.orig" "$GAP_JOURNAL.refused"

# Restart from the journal: every accepted job must be recovered and
# driven to a terminal state (done or dead-letter), nothing dispatched
# twice, and the books must balance.
$CORUN serve --fast --port 0 --machines 2 --journal "$CHAOS_JOURNAL" --recover \
    --fault-plan "$CHAOS_SPEC" >"$CHAOS_LOG" 2>&1 &
CHAOS_PID=$!
trap 'kill -9 "$CHAOS_PID" 2>/dev/null || true' EXIT
CHAOS_ADDR=$(wait_for_addr "$CHAOS_LOG" "$CHAOS_PID")

BALANCED=""
for _ in $(seq 1 300); do
    M=$(timeout 30 $CORUN status --addr "$CHAOS_ADDR")
    SUB=$(metric "$M" submitted)
    DONE_N=$(metric "$M" completed)
    DEAD_N=$(metric "$M" dead_lettered)
    REJ_N=$(metric "$M" rejected)
    if [ -n "$SUB" ] && [ "$SUB" -ge 8 ] &&
        [ "$((DONE_N + DEAD_N + REJ_N))" -eq "$SUB" ]; then
        BALANCED=yes
        break
    fi
    sleep 0.2
done
if [ -z "$BALANCED" ]; then
    echo "FAIL: recovered batch never balanced: $M" >&2
    cat "$CHAOS_LOG" >&2
    exit 1
fi
echo "$M" | grep -q '"queue_depth":0' || {
    echo "FAIL: recovered queue not drained: $M" >&2
    exit 1
}

# Injected faults must surface as stable SRV0xx diagnostics; the
# always-on straggler makes SRV004 deterministic.
DIAG=$(timeout 30 $CORUN status --addr "$CHAOS_ADDR" --diag)
echo "$DIAG" | grep -q 'SRV004' || {
    echo "FAIL: straggler faults missing from diagnostics: $DIAG" >&2
    exit 1
}

# Live-ops: the watch stream must carry nonempty metrics-ring history
# (line 1 is the column header, so a drained run needs > 1 lines).
WATCH=$(timeout 30 $CORUN status --addr "$CHAOS_ADDR" --watch)
if [ "$(echo "$WATCH" | wc -l)" -le 1 ]; then
    echo "FAIL: watch returned no metrics points: $WATCH" >&2
    exit 1
fi

# Clean exit via SIGTERM: the signal handler must drain and stop the
# daemon exactly like the shutdown RPC.
kill -TERM "$CHAOS_PID"
for _ in $(seq 1 150); do
    kill -0 "$CHAOS_PID" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$CHAOS_PID" 2>/dev/null; then
    echo "FAIL: daemon still running 30s after SIGTERM" >&2
    kill -9 "$CHAOS_PID"
    exit 1
fi
trap - EXIT

# Event-sourcing gate: the full journal (kill -9, recovery boundary,
# chaos retries, drain, SIGTERM shutdown) must re-execute with zero
# divergence, and the shutdown snapshot pins the terminal fingerprint —
# so a verified snapshot count >= 1 is bit-identical reproduction.
REPLAY_OUT=$(timeout 60 $CORUN replay "$CHAOS_JOURNAL") || {
    echo "FAIL: chaos journal did not replay cleanly: $REPLAY_OUT" >&2
    exit 1
}
echo "$REPLAY_OUT" | grep -Eq 'verified [1-9][0-9]* snapshot' || {
    echo "FAIL: replay verified no snapshot checkpoints: $REPLAY_OUT" >&2
    exit 1
}

# Snapshots are deltas. Flip the fingerprint of the last one: replay must
# fail RPL001 there, and --diff folds every delta before it into the
# recorded state — which must equal the replayed one, so no diff lines.
TAMPERED=$(mktemp)
LAST_SNAP=$(grep -n '^{"t":"snapshot"' "$CHAOS_JOURNAL" | tail -1 | cut -d: -f1)
FP=$(sed -n "${LAST_SNAP}s/.*\"fp\":\"\([0-9a-f]*\)\".*/\1/p" "$CHAOS_JOURNAL")
FLIPPED=$(printf '%016x' $((0x$FP ^ 1)))
sed "${LAST_SNAP}s/\"fp\":\"$FP\"/\"fp\":\"$FLIPPED\"/" "$CHAOS_JOURNAL" >"$TAMPERED"
if DIFF_OUT=$(timeout 60 $CORUN replay "$TAMPERED" --diff 2>&1); then
    echo "FAIL: a flipped snapshot fingerprint replayed cleanly: $DIFF_OUT" >&2
    exit 1
fi
echo "$DIFF_OUT" | grep -q 'RPL001' || {
    echo "FAIL: flipped fingerprint did not raise RPL001: $DIFF_OUT" >&2
    exit 1
}
if echo "$DIFF_OUT" | grep -Eq '^diff:|RPL004'; then
    echo "FAIL: folded snapshot deltas differ from the replayed state: $DIFF_OUT" >&2
    exit 1
fi

# A journal from an older format (v3 fingerprints walked the whole job
# table) must be refused up front with SRV007, not replayed against
# fingerprints it cannot reproduce (RPL001).
sed '1s/"version":[0-9]*/"version":3/' "$CHAOS_JOURNAL" >"$TAMPERED"
if OLD_OUT=$(timeout 60 $CORUN replay "$TAMPERED" 2>&1); then
    echo "FAIL: a version 3 journal replayed cleanly: $OLD_OUT" >&2
    exit 1
fi
if ! echo "$OLD_OUT" | grep -q 'SRV007' || echo "$OLD_OUT" | grep -q 'RPL001'; then
    echo "FAIL: a version 3 journal was not refused with SRV007 alone: $OLD_OUT" >&2
    exit 1
fi
rm -f "$CHAOS_LOG" "$CHAOS_JOURNAL" "$TAMPERED"

echo "== corun fleet: sharded smoke (4 daemons, 10k jobs, kill -9 + recover)"
FLEET_DIR=$(mktemp -d)
FLEET_PIDS=()
FLEET_ADDRS=()
stop_fleet() {
    for pid in "${FLEET_PIDS[@]}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
}
trap stop_fleet EXIT

start_shard_daemon() {
    # start_shard_daemon INDEX PORT EXTRA... — sets FLEET_PIDS[i] and
    # FLEET_ADDRS[i] (must run in this shell, not a substitution).
    local idx=$1 port=$2
    shift 2
    $CORUN serve --fast --port "$port" --machines 2 --queue 64 \
        --cache "$FLEET_DIR/cache" --journal "$FLEET_DIR/shard-$idx.jsonl" "$@" \
        >"$FLEET_DIR/shard-$idx.log" 2>&1 &
    FLEET_PIDS[idx]=$!
    FLEET_ADDRS[idx]=$(wait_for_addr "$FLEET_DIR/shard-$idx.log" "${FLEET_PIDS[$idx]}")
}

# Sequential starts share the characterization cache: shard 0 pays once.
for i in 0 1 2 3; do
    start_shard_daemon "$i" 0
done
ADDRS_CSV=$(
    IFS=,
    echo "${FLEET_ADDRS[*]}"
)

# Drive 10k jobs across the daemons under a 60 W cluster cap.
FLEET_LOG="$FLEET_DIR/fleet.log"
timeout 300 $CORUN fleet --addrs "$ADDRS_CSV" --cluster-cap 60 \
    --spec examples/specs/fleet_smoke.spec --repeat 100 --timeout 240 \
    >"$FLEET_LOG" 2>&1 &
FLEET_DRIVER=$!

# Hard-kill shard 2 as soon as the drain starts, then restart it on the
# same port with --recover: the coordinator must re-dial it and the
# books must balance.
for _ in $(seq 1 300); do
    grep -q 'draining' "$FLEET_LOG" 2>/dev/null && break
    sleep 0.1
done
kill -9 "${FLEET_PIDS[2]}"
wait "${FLEET_PIDS[2]}" 2>/dev/null || true
VICTIM_PORT=${FLEET_ADDRS[2]##*:}
FLEET_ADDRS[2]=""
sleep 0.5
# The dead socket may linger briefly; retry the rebind a few times.
for _ in $(seq 1 10); do
    if start_shard_daemon 2 "$VICTIM_PORT" --recover; then
        break
    fi
    FLEET_ADDRS[2]=""
    sleep 1
done
if [ -z "${FLEET_ADDRS[2]}" ]; then
    echo "FAIL: could not restart the killed shard on port $VICTIM_PORT" >&2
    exit 1
fi

if ! wait "$FLEET_DRIVER"; then
    echo "FAIL: fleet driver did not drain cleanly" >&2
    cat "$FLEET_LOG" >&2
    exit 1
fi

# Books must balance: 10k jobs, all terminal, nothing stuck.
grep -q 'jobs: 10000 total' "$FLEET_LOG" || {
    echo "FAIL: fleet did not account for all 10000 jobs:" >&2
    cat "$FLEET_LOG" >&2
    exit 1
}
grep -q '(0 backlog, 0 in flight)' "$FLEET_LOG" || {
    echo "FAIL: fleet left jobs stuck:" >&2
    cat "$FLEET_LOG" >&2
    exit 1
}
awk '/^jobs:/ {
    total = $2; sum = $5 + $8 + $11
    if (sum != total) { print "FAIL: books do not balance: " $0; exit 1 }
}' "$FLEET_LOG"
# Exactly-once admission over TCP: the shards' `submitted` counts sum to
# the jobs the fleet folded terminal (done + dead-letter).
awk '/^jobs:/ { folded = $5 + $8 }
/^shard [0-9]+:/ { admitted += $5 }
END {
    if (admitted != folded) {
        print "FAIL: shards admitted " admitted " jobs but the fleet folded " folded
        exit 1
    }
}' "$FLEET_LOG"

# The cap invariant must have held for the whole run: the peak hand-out
# never exceeds the cluster cap.
awk '/^power:/ {
    cluster = $4; peak = $12
    if (peak > cluster + 1e-6) {
        print "FAIL: peak cap hand-out " peak " W exceeds cluster cap " cluster " W"
        exit 1
    }
}' "$FLEET_LOG"

# `fleet status` aggregates the daemons and re-checks the live cap sum.
timeout 30 $CORUN fleet status --addrs "$ADDRS_CSV" --cluster-cap 60 >/dev/null

for i in 0 1 2 3; do
    timeout 30 $CORUN shutdown --addr "${FLEET_ADDRS[$i]}" || true
done
for pid in "${FLEET_PIDS[@]}"; do
    for _ in $(seq 1 150); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.2
    done
done
trap - EXIT
stop_fleet

# Every shard journal from the 10k-job drain must replay
# deterministically — shard 2's includes a kill -9 and a recovery
# boundary in the middle.
for i in 0 1 2 3; do
    timeout 120 $CORUN replay "$FLEET_DIR/shard-$i.jsonl" --quiet || {
        echo "FAIL: shard $i journal did not replay cleanly" >&2
        timeout 120 $CORUN replay "$FLEET_DIR/shard-$i.jsonl" >&2 || true
        exit 1
    }
done
rm -rf "$FLEET_DIR"

echo "== corun fleet: partition + coordinator kill -9 + --recover smoke"
# 4 daemons again, this time the *coordinator* is the victim: two of the
# four daemons are partitioned away mid-drain (SIGSTOP), the coordinator
# is killed outright while they are unreachable, the partition heals,
# and a second coordinator rebuilds the books from the write-ahead
# fleetlog with --recover. Every RPC also runs through a seeded
# @netchaos fault plan, so drops/dups/truncation over real TCP are
# exercised on the same run. Books must balance: every admitted job
# terminal exactly once, caps within the cluster cap throughout.
FLEET_DIR=$(mktemp -d)
FLEET_PIDS=()
FLEET_ADDRS=()
trap stop_fleet EXIT
for i in 0 1 2 3; do
    start_shard_daemon "$i" 0
done
ADDRS_CSV=$(
    IFS=,
    echo "${FLEET_ADDRS[*]}"
)
printf '@netchaos seed=9 drop=0.05 dup=0.05 truncate=0.03\n' >"$FLEET_DIR/net.plan"
FLEETLOG="$FLEET_DIR/fleet.jsonl"
NETC_LOG="$FLEET_DIR/netchaos.log"
timeout 240 $CORUN fleet --addrs "$ADDRS_CSV" --cluster-cap 60 \
    --journal "$FLEETLOG" --netchaos "$FLEET_DIR/net.plan" --op-timeout 3 \
    --spec examples/specs/fleet_smoke.spec --repeat 20 --timeout 200 \
    >"$NETC_LOG" 2>&1 &
NETC_DRIVER=$!
for _ in $(seq 1 300); do
    grep -q 'draining' "$NETC_LOG" 2>/dev/null && break
    sleep 0.1
done
# Partition two of the four daemons, then kill the coordinator while
# they are unreachable — the worst moment it could die.
kill -STOP "${FLEET_PIDS[1]}" "${FLEET_PIDS[2]}"
sleep 2
# kill -9 both the timeout wrapper and the coordinator under it: killing
# only the wrapper would orphan a live coordinator into the recovery run.
pkill -9 -P "$NETC_DRIVER" 2>/dev/null || true
kill -9 "$NETC_DRIVER" 2>/dev/null || true
wait "$NETC_DRIVER" 2>/dev/null || true
kill -CONT "${FLEET_PIDS[1]}" "${FLEET_PIDS[2]}"

RECOVER_LOG="$FLEET_DIR/recover.log"
timeout 240 $CORUN fleet --recover --addrs "$ADDRS_CSV" --cluster-cap 60 \
    --journal "$FLEETLOG" --netchaos "$FLEET_DIR/net.plan" --op-timeout 3 \
    --timeout 200 >"$RECOVER_LOG" 2>&1 || {
    echo "FAIL: recovered coordinator did not drain cleanly" >&2
    cat "$RECOVER_LOG" >&2
    exit 1
}
grep -q 'recovered coordinator books' "$RECOVER_LOG" || {
    echo "FAIL: --recover did not adopt the fleetlog:" >&2
    cat "$RECOVER_LOG" >&2
    exit 1
}
grep -q 'jobs: 2000 total' "$RECOVER_LOG" || {
    echo "FAIL: recovered books did not account for all 2000 jobs:" >&2
    cat "$RECOVER_LOG" >&2
    exit 1
}
grep -q '(0 backlog, 0 in flight)' "$RECOVER_LOG" || {
    echo "FAIL: recovered fleet left jobs stuck:" >&2
    cat "$RECOVER_LOG" >&2
    exit 1
}
grep -q '^net: ' "$RECOVER_LOG" || {
    echo "FAIL: no transport summary in the recovered fleet output:" >&2
    cat "$RECOVER_LOG" >&2
    exit 1
}
awk '/^jobs:/ {
    total = $2; sum = $5 + $8 + $11
    if (sum != total) { print "FAIL: recovered books do not balance: " $0; exit 1 }
}' "$RECOVER_LOG"
awk '/^jobs:/ { folded = $5 + $8 }
/^shard [0-9]+:/ { admitted += $5 }
END {
    if (admitted != folded) {
        print "FAIL: shards admitted " admitted " jobs but the recovered fleet folded " folded
        exit 1
    }
}' "$RECOVER_LOG"
awk '/^power:/ {
    cluster = $4; peak = $12
    if (peak > cluster + 1e-6) {
        print "FAIL: peak cap hand-out " peak " W exceeds cluster cap " cluster " W"
        exit 1
    }
}' "$RECOVER_LOG"

for i in 0 1 2 3; do
    timeout 30 $CORUN shutdown --addr "${FLEET_ADDRS[$i]}" || true
done
for pid in "${FLEET_PIDS[@]}"; do
    for _ in $(seq 1 150); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.2
    done
done
trap - EXIT
stop_fleet
rm -rf "$FLEET_DIR"

echo "== corun fleet: event-driven smoke (8 shards x 16 machines, 20k jobs)"
# The discrete-event engine makes this in-process scale CI-affordable:
# each shard's batched workers pull the earliest wake-up across their
# resident machines instead of ticking fixed steps. Asserts the books
# balance and the cap-sum invariant under a mid-drain shard crash.
timeout 1200 cargo test --release -q -p corun-fleet --test fleet_chaos \
    event_driven_fleet_smoke -- --ignored

echo "== offline class cache: paper settings, shared cache vs none"
# The paper's configuration (measured profiles, LLC probe, 3x3 stages)
# over rodinia16 seeds 1-10, once through one config whose class cache
# every batch shares and once with a fresh config per batch: every HCS+
# schedule, lower bound and executed makespan must agree bit for bit.
timeout 600 cargo test --release -q -p runtime --lib \
    a_shared_class_cache_changes_no_outcome_at_paper_settings -- --ignored

echo "== offline schedules: paper settings, pinned HCS and HCS+ digests"
# rodinia16 seeds 1-10 at 10, 15 and 20 W under the paper's configuration:
# every HCS and HCS+ schedule must hash to the digest pinned in the test.
timeout 600 cargo test --release -q -p runtime --lib \
    offline_schedules_match_their_pinned_digests_at_paper_settings -- --ignored

echo "== perf gate: simulator throughput vs committed BENCH_sim.json"
# Fails if simulated-seconds-per-wall-second regresses more than 30%
# below the committed trajectory baseline.
cargo run --release -q -p bench --bin perf_gate

echo "CI OK"
