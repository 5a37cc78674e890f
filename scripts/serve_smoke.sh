#!/usr/bin/env bash
# End-to-end smoke test for the serving stack: start harmoniad on a
# Unix socket plus a TCP listener, drive ~100 mixed-verb requests
# through harmonia_client on each transport — the TCP stage fans the
# load across 16 concurrent connections so the reactor's
# cross-connection micro-batching path is exercised — assert zero
# error replies, then verify the daemon drains cleanly on SIGTERM.
# The drain writes the persistent point-store snapshot (--cache-file),
# and a second daemon lifetime replays identical seeded bursts against
# it to prove a warm restart actually serves from the snapshot: every
# sweep and evaluate lattice of the mixed burst comes off the file (the
# default device's sweep_cache.misses stays 0) and the evaluate burst
# reports snapshot hits (cache.persistent warm_hits > 0). The store is
# keyed by (kernel, phase), not (kernel, iteration): the first lifetime
# evaluates iteration 0 of a phase-invariant kernel, the warm lifetime
# asks for iteration 7 of it and must compute no point, which proves
# the key survives a restart through the snapshot.
# Used by ctest (serve_smoke) and the CI smoke stage.
#
# usage: serve_smoke.sh /path/to/harmoniad /path/to/harmonia_client
set -eu

HARMONIAD=${1:?usage: serve_smoke.sh HARMONIAD HARMONIA_CLIENT}
CLIENT=${2:?usage: serve_smoke.sh HARMONIAD HARMONIA_CLIENT}

WORK=$(mktemp -d "${TMPDIR:-/tmp}/serve_smoke.XXXXXX")
SOCK="$WORK/harmoniad.sock"
SNAP="$WORK/cache.snap"
DAEMON_LOG="$WORK/daemon.log"
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Wait for the daemon socket, failing fast if the daemon dies first.
wait_for_socket() {
    for _ in $(seq 1 100); do
        [ -S "$SOCK" ] && return 0
        kill -0 "$DAEMON_PID" 2>/dev/null || {
            echo "serve_smoke: daemon died during startup" >&2
            cat "$DAEMON_LOG" >&2
            exit 1
        }
        sleep 0.1
    done
    echo "serve_smoke: socket never appeared" >&2
    exit 1
}

# The TCP port a daemon printed to $DAEMON_LOG on startup.
tcp_port() {
    local port
    port=$(sed -n 's/.*listening on tcp [0-9.]*:\([0-9][0-9]*\).*/\1/p' \
        "$DAEMON_LOG" | head -n 1)
    if [ -z "$port" ]; then
        echo "serve_smoke: no TCP port in daemon log" >&2
        cat "$DAEMON_LOG" >&2
        exit 1
    fi
    echo "$port"
}

# Send each request line over one TCP connection to port $1 and print
# its reply line; fails when a reply does not arrive.
tcp_exchange() {
    local port=$1 line reply
    shift
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    for line in "$@"; do
        printf '%s\n' "$line" >&3
        IFS= read -r -t 10 reply <&3 || {
            echo "serve_smoke: no reply to $line" >&2
            exit 1
        }
        printf '%s\n' "$reply"
    done
    exec 3<&-
}

# A full-lattice evaluate of a kernel whose phase never changes.
phase_evaluate() { # <iteration>
    printf '{"schema":"harmonia.request/1","id":%s,"verb":"evaluate",' "$1"
    printf '"kernel":"CoMD.EAM_Force_1","iteration":%s,"configs":"all"}' "$1"
}

# SIGTERM the daemon and require a clean exit plus the drain marker.
drain_daemon() {
    kill -TERM "$DAEMON_PID"
    DRAIN_OK=0
    for _ in $(seq 1 100); do
        if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
            DRAIN_OK=1
            break
        fi
        sleep 0.1
    done
    if [ "$DRAIN_OK" != 1 ]; then
        echo "serve_smoke: daemon did not exit after SIGTERM" >&2
        exit 1
    fi
    wait "$DAEMON_PID" && STATUS=0 || STATUS=$?
    if [ "$STATUS" != 0 ]; then
        echo "serve_smoke: daemon exited with status $STATUS" >&2
        cat "$DAEMON_LOG" >&2
        exit 1
    fi
    grep -q "drained, shutting down" "$DAEMON_LOG" || {
        echo "serve_smoke: no drain marker in daemon log" >&2
        cat "$DAEMON_LOG" >&2
        exit 1
    }
}

# Both listeners feed one reactor; port 0 = ephemeral, the daemon
# prints the resolved port on startup. The SIGTERM drain at the end of
# this lifetime writes the point stores to $SNAP.
"$HARMONIAD" --socket "$SOCK" --tcp 127.0.0.1:0 --jobs 2 \
    --cache-file "$SNAP" 2>"$DAEMON_LOG" &
DAEMON_PID=$!

# Wait for the socket to appear (daemon startup includes building the
# device model).
wait_for_socket

# Mixed-verb load: the client exits non-zero on any error reply. The
# fixed seed makes it reproducible: the warm-restart stage replays it.
"$CLIENT" --socket "$SOCK" --requests 100 --mix mixed --configs 8 \
    --kernels 4 --seed 11 --stats

# A second, pure-evaluate burst exercises the micro-batcher. The fixed
# seed makes the request set reproducible: the warm-restart stage
# below replays exactly this burst against the drained snapshot.
"$CLIENT" --socket "$SOCK" --requests 40 --mix evaluate --configs 16 \
    --kernels 2 --seed 7 --quiet

# TCP stage: the same daemon over its TCP listener, with the load
# fanned across 16 concurrent connections — consecutive requests of
# one coalescing cohort arrive on different sockets, so zero error
# replies here covers the cross-connection fusion path end to end.
TCP_PORT=$(tcp_port)
"$CLIENT" --tcp "127.0.0.1:$TCP_PORT" --clients 16 --requests 100 \
    --mix mixed --configs 8 --kernels 4 --stats
"$CLIENT" --tcp "127.0.0.1:$TCP_PORT" --clients 16 --requests 48 \
    --mix evaluate --configs 16 --kernels 2 --quiet

# Iteration 0 of a phase-invariant kernel, for the warm lifetime to
# reach through a later iteration.
PHASE_REPLY=$(tcp_exchange "$TCP_PORT" "$(phase_evaluate 0)")
case "$PHASE_REPLY" in
    *'"ok":true'*) ;;
    *)
        echo "serve_smoke: iteration-0 evaluate failed: $PHASE_REPLY" >&2
        exit 1
        ;;
esac

# Graceful SIGTERM drain: daemon must exit 0, report its shutdown
# stats line, and leave the persistent snapshot behind.
drain_daemon
if [ ! -s "$SNAP" ]; then
    echo "serve_smoke: drain left no snapshot at $SNAP" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
fi

# Warm-restart stage: a second daemon lifetime on the same
# --cache-file replays the seeded mixed and evaluate bursts — every
# point they need was drained by the first lifetime, so no sweep or
# evaluate computes a point (the default device's sweep_cache.misses
# is 0) and the stats verb reports snapshot hits
# (cache.persistent warm_hits > 0). It opens with iteration 7 of the
# kernel whose iteration 0 the first lifetime evaluated: one phase, so
# the restored lattice serves it and no point is computed.
DAEMON_LOG="$WORK/daemon_warm.log"
"$HARMONIAD" --socket "$SOCK" --tcp 127.0.0.1:0 --jobs 2 \
    --cache-file "$SNAP" 2>"$DAEMON_LOG" &
DAEMON_PID=$!
wait_for_socket

PHASE_OUT=$(tcp_exchange "$(tcp_port)" "$(phase_evaluate 7)" \
    '{"schema":"harmonia.request/1","id":8,"verb":"stats"}')
PHASE_COMPUTED=$(printf '%s\n' "$PHASE_OUT" |
    sed -n 's/.*"points_computed"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' |
    head -n 1)
case "$PHASE_OUT" in
    *'"iteration":7,"points":448'*) ;;
    *) PHASE_COMPUTED="no iteration-7 lattice" ;;
esac
if [ "$PHASE_COMPUTED" != 0 ]; then
    echo "serve_smoke: iteration 7 of a phase-invariant kernel was not" \
        "served from its restored iteration-0 lattice" \
        "(points_computed='$PHASE_COMPUTED', want 0)" >&2
    printf '%s\n' "$PHASE_OUT" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
fi
echo "serve_smoke: iteration 7 served from the restored iteration-0" \
    "lattice, 0 points computed"

"$CLIENT" --socket "$SOCK" --requests 100 --mix mixed --configs 8 \
    --kernels 4 --seed 11 --quiet
WARM_OUT=$("$CLIENT" --socket "$SOCK" --requests 40 --mix evaluate \
    --configs 16 --kernels 2 --seed 7 --quiet --stats)
WARM_MISSES=$(printf '%s\n' "$WARM_OUT" |
    sed -n 's/.*"active"[[:space:]]*:[[:space:]]*{[[:space:]]*"hd7970"[[:space:]]*:[[:space:]]*{[^}]*"sweep_cache"[[:space:]]*:[[:space:]]*{[^}]*"misses"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' |
    head -n 1)
if [ "$WARM_MISSES" != 0 ]; then
    echo "serve_smoke: warm restart computed lattices" \
        "(sweep_cache.misses='$WARM_MISSES', want 0)" >&2
    printf '%s\n' "$WARM_OUT" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
fi
WARM_HITS=$(printf '%s\n' "$WARM_OUT" |
    sed -n 's/.*"warm_hits"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' |
    head -n 1)
if [ -z "$WARM_HITS" ] || [ "$WARM_HITS" -eq 0 ]; then
    echo "serve_smoke: warm restart served no snapshot hits" >&2
    printf '%s\n' "$WARM_OUT" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
fi
echo "serve_smoke: warm restart served $WARM_HITS snapshot hits," \
    "0 sweep_cache misses"

drain_daemon

echo "serve_smoke: OK"
