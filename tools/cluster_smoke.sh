#!/usr/bin/env bash
# Cluster smoke for the replicated serving tier: boot three
# medcc_server replicas wired to each other with --peers, populate one
# replica's cache over TCP, wait for replication to settle (every peer
# channel connected at protocol v2, sent == acked, queue drained),
# SIGKILL the populated replica, and require a surviving replica to
# answer the same workload entirely from its replicated cache -- warm
# failover without a single miss.
#
# usage: tools/cluster_smoke.sh [BUILD_DIR]
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVER="$BUILD_DIR/tools/medcc_server"
DEMO="$BUILD_DIR/tools/medcc_serve_demo"
CTL="$BUILD_DIR/tools/medcc_clusterctl"
if [ ! -x "$SERVER" ] || [ ! -x "$DEMO" ] || [ ! -x "$CTL" ]; then
  echo "cluster_smoke: $SERVER / $DEMO / $CTL not built" >&2
  exit 2
fi

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    [ -n "$pid" ] && kill -KILL "$pid" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

metric() { # $1 = stats dump, $2 = metric name; -1 when absent
  awk -v m="$2" '$1 == m { print $2; found = 1 } END { if (!found) print -1 }' "$1"
}

# The replicator's peer list is fixed at boot, so every replica must
# know the others' ports up front -- ephemeral --port 0 cannot work
# here. Pick a random base port and retry the whole boot on a bind
# clash (a replica that cannot bind exits before printing its
# "listening on" banner).
boot_cluster() {
  base=$((RANDOM % 20000 + 30000))
  ports=("$base" "$((base + 1))" "$((base + 2))")
  pids=()
  for i in 0 1 2; do
    peers=""
    for j in 0 1 2; do
      [ "$j" = "$i" ] && continue
      peers="${peers:+$peers,}127.0.0.1:${ports[$j]}"
    done
    "$SERVER" --port "${ports[$i]}" --threads 2 --io-threads 2 \
              --node-id "node$i" --peers "$peers" \
              >"$workdir/server$i.log" 2>&1 &
    pids+=($!)
    disown $!  # keep later SIGKILLs out of the job-control chatter
  done
  for i in 0 1 2; do
    for _ in $(seq 1 100); do
      if grep -q "listening on" "$workdir/server$i.log"; then break; fi
      if ! kill -0 "${pids[$i]}" 2>/dev/null; then return 1; fi
      sleep 0.1
    done
    grep -q "listening on" "$workdir/server$i.log" || return 1
  done
  return 0
}

booted=0
for _ in 1 2 3 4 5; do
  if boot_cluster; then booted=1; break; fi
  for pid in "${pids[@]:-}"; do
    [ -n "$pid" ] && kill -KILL "$pid" 2>/dev/null || true
  done
  pids=()
done
if [ "$booted" != 1 ]; then
  echo "cluster_smoke: could not boot 3 replicas; last logs:" >&2
  cat "$workdir"/server*.log >&2 || true
  exit 1
fi
echo "== 3 replicas up on ports ${ports[*]}"

echo "== populate node0's cache over TCP"
"$DEMO" --connect "127.0.0.1:${ports[0]}" >"$workdir/demo0.log"

echo "== wait for replication to settle (v2 connected, sent == acked)"
settled=0
for _ in $(seq 1 100); do
  "$CTL" --nodes "127.0.0.1:${ports[0]}" >"$workdir/ctl.txt" 2>&1 || true
  if awk '
      /^  peer / {
        peers++
        ok = 0
        for (f = 1; f <= NF; ++f) {
          if ($f == "state=connected") state = 1
          if ($f ~ /^sent=/)   { split($f, a, "="); sent = a[2] }
          if ($f ~ /^acked=/)  { split($f, a, "="); acked = a[2] }
          if ($f ~ /^queued=/) { split($f, a, "="); queued = a[2] }
        }
        if (state && sent >= 1 && sent == acked && queued == 0) settled++
        state = 0
      }
      END { exit !(peers == 2 && settled == 2) }' "$workdir/ctl.txt"; then
    settled=1
    break
  fi
  sleep 0.1
done
if [ "$settled" != 1 ]; then
  echo "cluster_smoke: FAIL: replication did not settle; status:" >&2
  cat "$workdir/ctl.txt" >&2
  exit 1
fi
grep -q "protocol v2" "$workdir/ctl.txt" || {
  echo "cluster_smoke: FAIL: no v2 handshake in status output" >&2
  cat "$workdir/ctl.txt" >&2
  exit 1
}

echo "== SIGKILL node0 (the only replica that ever solved anything)"
kill -KILL "${pids[0]}"
wait "${pids[0]}" 2>/dev/null || true
pids[0]=""

echo "== failover: node1 must answer the same workload from its replica cache"
"$DEMO" --connect "127.0.0.1:${ports[1]}" >"$workdir/demo1.log"
"$DEMO" --connect "127.0.0.1:${ports[1]}" --stats >"$workdir/stats1.txt"
misses="$(metric "$workdir/stats1.txt" cache_misses)"
hits="$(metric "$workdir/stats1.txt" cache_hits_exact)"
applied="$(metric "$workdir/stats1.txt" repl_applied)"
if [ "$misses" -ne 0 ] || [ "$hits" -lt 1 ] || [ "$applied" -lt 1 ]; then
  echo "cluster_smoke: FAIL: cache_misses=$misses cache_hits_exact=$hits repl_applied=$applied" >&2
  cat "$workdir/stats1.txt" >&2
  exit 1
fi
# Transport rows ride the same live dump: the survivor saw neither
# malformed frames nor answers lost to vanished peers.
perrors="$(metric "$workdir/stats1.txt" protocol_errors)"
dropped="$(metric "$workdir/stats1.txt" dropped_responses)"
if [ "$perrors" -ne 0 ] || [ "$dropped" -ne 0 ]; then
  echo "cluster_smoke: FAIL: protocol_errors=$perrors dropped_responses=$dropped" >&2
  cat "$workdir/stats1.txt" >&2
  exit 1
fi

echo "== survivor status: node1 sees the dead peer as unhealthy"
"$CTL" --nodes "127.0.0.1:${ports[1]},127.0.0.1:${ports[2]}" \
  >"$workdir/ctl_after.txt" 2>&1 || {
  echo "cluster_smoke: FAIL: survivors unreachable" >&2
  cat "$workdir/ctl_after.txt" >&2
  exit 1
}

echo "cluster_smoke: OK (repl_applied=$applied, cache_hits_exact=$hits, cache_misses=0)"
