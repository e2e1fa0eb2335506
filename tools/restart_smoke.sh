#!/usr/bin/env bash
# Restart smoke for the durable result cache: populate a server's cache
# over TCP, SIGKILL it (no graceful shutdown, so only the journal holds
# the entries), restart on the same directory, and require the warmed
# cache to answer the same workload without a single miss.
#
# usage: tools/restart_smoke.sh [BUILD_DIR]
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVER="$BUILD_DIR/tools/medcc_server"
DEMO="$BUILD_DIR/tools/medcc_serve_demo"
if [ ! -x "$SERVER" ] || [ ! -x "$DEMO" ]; then
  echo "restart_smoke: $SERVER / $DEMO not built" >&2
  exit 2
fi

workdir="$(mktemp -d)"
server_pid=""
cleanup() {
  if [ -n "$server_pid" ]; then kill -KILL "$server_pid" 2>/dev/null || true; fi
  rm -rf "$workdir"
}
trap cleanup EXIT

# Starts medcc_server on an ephemeral port against the shared cache dir
# and parses the port out of its "listening on" line into $port.
start_server() { # $1 = log file
  "$SERVER" --port 0 --threads 2 --io-threads 2 --cache-dir "$workdir/cache" \
            --snapshot-interval 300 >"$1" 2>&1 &
  server_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -nE 's/^medcc_server listening on .*:([0-9]+) .*persist on.*/\1/p' "$1")"
    if [ -n "$port" ]; then return 0; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then break; fi
    sleep 0.1
  done
  echo "restart_smoke: server did not come up; log:" >&2
  cat "$1" >&2
  exit 1
}

metric() { # $1 = stats dump, $2 = metric name; -1 when absent
  awk -v m="$2" '$1 == m { print $2; found = 1 } END { if (!found) print -1 }' "$1"
}

echo "== leg 1: cold server, populate the cache over TCP"
start_server "$workdir/server1.log"
"$DEMO" --connect "127.0.0.1:$port" >"$workdir/demo1.log"

echo "== SIGKILL the server mid-flight (journal only, no final snapshot)"
kill -KILL "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "== leg 2: warm restart on the same --cache-dir"
start_server "$workdir/server2.log"
"$DEMO" --connect "127.0.0.1:$port" --stats >"$workdir/stats_boot.txt"
loaded="$(metric "$workdir/stats_boot.txt" persist_loaded_entries)"
if [ "$loaded" -lt 1 ]; then
  echo "restart_smoke: FAIL: persist_loaded_entries=$loaded after restart" >&2
  cat "$workdir/stats_boot.txt" >&2
  exit 1
fi

"$DEMO" --connect "127.0.0.1:$port" >"$workdir/demo2.log"
"$DEMO" --connect "127.0.0.1:$port" --stats >"$workdir/stats_after.txt"
misses="$(metric "$workdir/stats_after.txt" cache_misses)"
hits="$(metric "$workdir/stats_after.txt" cache_hits_exact)"
if [ "$misses" -ne 0 ] || [ "$hits" -lt 1 ]; then
  echo "restart_smoke: FAIL: cache_misses=$misses cache_hits_exact=$hits" >&2
  cat "$workdir/stats_after.txt" >&2
  exit 1
fi
# Transport rows ride the same live dump: a clean run has neither
# malformed frames nor answers lost to vanished peers.
perrors="$(metric "$workdir/stats_after.txt" protocol_errors)"
dropped="$(metric "$workdir/stats_after.txt" dropped_responses)"
if [ "$perrors" -ne 0 ] || [ "$dropped" -ne 0 ]; then
  echo "restart_smoke: FAIL: protocol_errors=$perrors dropped_responses=$dropped" >&2
  cat "$workdir/stats_after.txt" >&2
  exit 1
fi

kill -KILL "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "restart_smoke: OK (persist_loaded_entries=$loaded, cache_hits_exact=$hits, cache_misses=0)"
