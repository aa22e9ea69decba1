#!/usr/bin/env bash
# load_smoke.sh — CI loopback soak of the socket-backed control plane.
#
# Starts a live mmx-apd daemon, storms it with a fixed-seed mmx-load
# fleet under fault injection (drops, dups, truncations, delays on every
# client's send path), kills the daemon mid-storm and restarts it on the
# same port, then asserts clean convergence on both sides:
#
#   client side: mmx-load exits 0 (every client joined AND released)
#   daemon side: the restarted daemon's shutdown line reads
#                "final leases=0 records=0 addrs=0 audit=ok" after one
#                lease TTL has passed, so even leases planted by clients
#                that lost their reply mid-fault were reclaimed, and so
#                were the records and addresses of nodes that never held
#                one (the fleet the restarted daemon nacked).
#
# Tunables (environment): CLIENTS, PORT, SEED.
set -euo pipefail

cd "$(dirname "$0")/.."

CLIENTS="${CLIENTS:-20000}"
PORT="${PORT:-7455}"
SEED="${SEED:-11}"
TTL=5
BIN="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$BIN"' EXIT

echo "== build"
go build -o "$BIN/mmx-apd" ./cmd/mmx-apd
go build -o "$BIN/mmx-load" ./cmd/mmx-load

start_daemon() {
    "$BIN/mmx-apd" -listen "127.0.0.1:$PORT" -lease-ttl $TTL -expire-every 0.5 \
        -quiet > "$1" 2>&1 &
    DAEMON_PID=$!
    sleep 0.5
}

echo "== daemon (first incarnation)"
start_daemon "$BIN/apd1.log"

echo "== storm: $CLIENTS clients, seeded faults, daemon restart mid-storm"
"$BIN/mmx-load" -addr "127.0.0.1:$PORT" -clients "$CLIENTS" -sockets 8 \
    -renews 4 -renew-every 0.5 -ramp 6 -join-deadline 60 -timeout 0.25 \
    -drop 0.05 -dup 0.03 -trunc 0.02 -delay 0.05 -seed "$SEED" \
    > "$BIN/load.log" 2>&1 &
LOAD_PID=$!

sleep 5
echo "== chaos drill: SIGTERM daemon mid-storm"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || true
# Mid-storm the books hold live leases — but they must be consistent.
grep -q "audit=ok" "$BIN/apd1.log" || {
    echo "FAIL: first daemon's books inconsistent at shutdown"; cat "$BIN/apd1.log"; exit 1; }

sleep 1
echo "== daemon (restarted, fresh books, same port)"
start_daemon "$BIN/apd2.log"

if ! wait "$LOAD_PID"; then
    echo "FAIL: storm did not converge"; tail -20 "$BIN/load.log"; exit 1
fi
grep -E "join:|renew:|sustained:" "$BIN/load.log"
grep -q "CONVERGED" "$BIN/load.log"

# Let the lease sweeper reclaim anything a faulted client left behind,
# then take the daemon down and read its final audit.
sleep $((TTL + 2))
echo "== final audit"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || true
cat "$BIN/apd2.log"
grep -q "final leases=0 records=0 addrs=0 audit=ok" "$BIN/apd2.log" || {
    echo "FAIL: restarted daemon leaked leases, records or addresses, or failed audit"; exit 1; }

echo "== load-smoke OK: converged through fault injection and a daemon restart"
