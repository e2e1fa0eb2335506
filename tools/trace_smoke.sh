#!/usr/bin/env bash
# Tracing smoke for the observability plane: boot three traced
# medcc_server replicas wired with --peers, push one traced solve
# through a ClusterClient (medcc_serve_demo --trace-solve), and
# require the SAME trace id on every replica -- a request span on the
# tenant's primary and repl_apply spans on both peers, read back with
# medcc_tracectl, and a sampled solve stage in the primary's metrics
# rows (medcc_tracectl --stages). Then SIGKILL the primary and solve
# again: the client must retain a client_failover span and a survivor
# must show the new id. One id, one journey, across a node death.
#
# usage: tools/trace_smoke.sh [BUILD_DIR]
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVER="$BUILD_DIR/tools/medcc_server"
DEMO="$BUILD_DIR/tools/medcc_serve_demo"
CTL="$BUILD_DIR/tools/medcc_tracectl"
if [ ! -x "$SERVER" ] || [ ! -x "$DEMO" ] || [ ! -x "$CTL" ]; then
  echo "trace_smoke: $SERVER / $DEMO / $CTL not built" >&2
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

# Fixed ports, retried on bind clash, exactly as tools/cluster_smoke.sh.
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
              --trace --trace-sample 1 \
              >"$workdir/server$i.log" 2>&1 &
    pids+=($!)
    disown $!
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
  cleanup_keep_dir=1
  for pid in "${pids[@]:-}"; do kill -KILL "$pid" 2>/dev/null || true; done
done
[ "$booted" = 1 ] || { echo "trace_smoke: cluster failed to boot" >&2; exit 1; }
nodes="127.0.0.1:${ports[0]},127.0.0.1:${ports[1]},127.0.0.1:${ports[2]}"
echo "== 3 traced replicas up on ${ports[*]}"

echo "== one traced solve through the ClusterClient"
"$DEMO" --trace-solve "$nodes" --tenant trace-tenant \
    >"$workdir/solve1.txt"
cat "$workdir/solve1.txt"
trace1="$(awk '$1 == "trace" { print $2 }' "$workdir/solve1.txt")"
[ -n "$trace1" ] || { echo "trace_smoke: no trace id printed" >&2; exit 1; }
grep -q "status ok" "$workdir/solve1.txt" \
    || { echo "trace_smoke: first solve not ok" >&2; exit 1; }

# Per-node dumps: wait until all three replicas retained the id --
# the primary's request trace plus both peers' repl_apply records.
echo "== waiting for trace $trace1 on all three replicas"
settled=0
for _ in $(seq 1 100); do
  with_id=0
  for i in 0 1 2; do
    "$CTL" --nodes "127.0.0.1:${ports[$i]}" --recent 64 \
        >"$workdir/dump$i.txt" 2>&1 || true
    grep -q "trace $trace1" "$workdir/dump$i.txt" && with_id=$((with_id + 1))
  done
  if [ "$with_id" = 3 ]; then settled=1; break; fi
  sleep 0.1
done
[ "$settled" = 1 ] || {
  echo "trace_smoke: trace $trace1 not on all replicas" >&2
  cat "$workdir"/dump*.txt >&2
  exit 1
}

# The primary is the replica whose retained trace carries the request
# span; the peers must carry repl_apply under the SAME id.
primary=""
appliers=0
for i in 0 1 2; do
  block="$(awk -v id="trace $trace1" '
      index($0, id) { grab = 1; next }
      grab && /^    / { print; next }
      grab { grab = 0 }' "$workdir/dump$i.txt")"
  if echo "$block" | grep -q "request"; then primary="$i"; fi
  if echo "$block" | grep -q "repl_apply"; then appliers=$((appliers + 1)); fi
done
[ -n "$primary" ] || { echo "trace_smoke: no replica served the solve" >&2; exit 1; }
[ "$appliers" -ge 2 ] || {
  echo "trace_smoke: expected 2 repl_apply records, saw $appliers" >&2
  cat "$workdir"/dump*.txt >&2
  exit 1
}
echo "== trace $trace1: request on node$primary, repl_apply on $appliers peers"

# The stage distributions are rows of the metrics table: the replica
# that served the traced solve must report a sampled solve stage.
"$CTL" --nodes "127.0.0.1:${ports[$primary]}" --stages \
    >"$workdir/stages.txt"
cat "$workdir/stages.txt"
solves="$(awk '$1 == "stage" && $2 == "solve" {
    sub(/^count=/, "", $3); print $3 }' "$workdir/stages.txt")"
[ "${solves:-0}" -gt 0 ] 2>/dev/null || {
  echo "trace_smoke: node$primary printed no solve stage samples" >&2
  exit 1
}

echo "== SIGKILL node$primary, solve again"
kill -KILL "${pids[$primary]}"
survivors=""
for i in 0 1 2; do
  [ "$i" = "$primary" ] && continue
  survivors="${survivors:+$survivors,}127.0.0.1:${ports[$i]}"
done
"$DEMO" --trace-solve "$nodes" --tenant trace-tenant \
    >"$workdir/solve2.txt"
cat "$workdir/solve2.txt"
trace2="$(awk '$1 == "trace" { print $2 }' "$workdir/solve2.txt")"
grep -q "status ok" "$workdir/solve2.txt" \
    || { echo "trace_smoke: post-kill solve not ok" >&2; exit 1; }
grep -q "client_failover" "$workdir/solve2.txt" || {
  echo "trace_smoke: client retained no failover span" >&2
  exit 1
}

# The survivor that answered retained the retried id too.
found=0
for _ in $(seq 1 50); do
  if "$CTL" --nodes "$survivors" --recent 64 | grep -q "trace $trace2"; then
    found=1
    break
  fi
  sleep 0.1
done
[ "$found" = 1 ] || {
  echo "trace_smoke: retried trace $trace2 absent from survivors" >&2
  "$CTL" --nodes "$survivors" --recent 64 >&2 || true
  exit 1
}

echo "trace_smoke: PASS (one id per journey: $trace1 pre-kill, $trace2 across the failover)"
