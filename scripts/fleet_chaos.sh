#!/usr/bin/env bash
# Fleet chaos smoke: three mapd replicas sharing a -cache-dir (each
# with its own -job-dir) behind maprouter; a batch of jobs is submitted
# through the router, the replica hosting work is SIGKILLed mid-batch,
# and the script proves that (a) every job completes with zero
# client-visible errors, (b) the router recorded at least one failover,
# (c) the killed replica's circuit breaker recloses after it restarts
# at the same address, and (d) the surviving results are byte-identical
# in every quality field to an uninterrupted single-mapd reference run.
#
# Usage: scripts/fleet_chaos.sh [base-port]
#
# Uses base-port (router) through base-port+4 (reference mapd). Exits
# non-zero with a diagnostic on any failed assertion. Run from the
# repository root; needs only bash, curl and the go toolchain.
set -euo pipefail

BASE_PORT="${1:-18930}"
ROUTER_PORT="$BASE_PORT"
REF_PORT=$((BASE_PORT + 4))
ROUTER="http://127.0.0.1:${ROUTER_PORT}"
REF="http://127.0.0.1:${REF_PORT}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/fleet-chaos-XXXXXX")"
CACHE="$WORK/cache"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]}"; do
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

jget() { # jget FILE KEY — scalar JSON field (dotted = path) without jq
  "$WORK/jsonfield" "$1" "$2"
}

# Fail fast when any port in the block is already bound, instead of
# confusing downstream curl errors against a stranger's process.
for p in $(seq "$BASE_PORT" "$REF_PORT"); do
  if (exec 3<>"/dev/tcp/127.0.0.1/${p}") 2>/dev/null; then
    fail "port $p on 127.0.0.1 is already in use — pick a free block: scripts/fleet_chaos.sh <base-port>"
  fi
done

wait_http_ok() { # wait_http_ok URL DESC
  for _ in $(seq 1 150); do
    if curl -sf "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "$2 never became ready at $1"
}

JOB_BODY='{"graph": {"network": "p2p-Gnutella", "scale": 0.25},
           "topology": "grid:8x8", "case": "identity",
           "num_hierarchies": 40, "seed": %d}'
SEEDS=(1 2 3 4 5 6)

start_replica() { # start_replica INDEX -> pid on stdout
  local port=$((BASE_PORT + $1))
  "$WORK/mapd" -addr "127.0.0.1:${port}" -workers 2 \
    -cache-dir "$CACHE" -job-dir "$WORK/replica$1/jobs" \
    >>"$WORK/replica$1.log" 2>&1 &
  echo $!
}

echo "== build mapd + maprouter"
go build -o "$WORK/mapd" ./cmd/mapd
go build -o "$WORK/maprouter" ./cmd/maprouter
go build -o "$WORK/jsonfield" ./scripts/jsonfield.go

echo "== start 3 replicas (shared cache-dir, per-replica job-dir) + router"
REPLICA_URLS=()
for i in 1 2 3; do
  PIDS+=("$(start_replica "$i")")
  REPLICA_URLS+=("http://127.0.0.1:$((BASE_PORT + i))")
done
"$WORK/maprouter" -addr "127.0.0.1:${ROUTER_PORT}" \
  -replicas "$(IFS=,; echo "${REPLICA_URLS[*]}")" \
  -probe-interval 100ms -breaker-threshold 3 -breaker-cooldown 1s \
  >>"$WORK/router.log" 2>&1 &
PIDS+=($!)
for i in 1 2 3; do wait_http_ok "${REPLICA_URLS[$((i-1))]}/readyz" "replica $i"; done
wait_http_ok "$ROUTER/readyz" "maprouter"

echo "== submit ${#SEEDS[@]} jobs through the router"
IDS=()
for seed in "${SEEDS[@]}"; do
  # shellcheck disable=SC2059
  curl -sf "$ROUTER/v1/jobs" -d "$(printf "$JOB_BODY" "$seed")" \
    -o "$WORK/submit.json" || fail "submitting seed $seed"
  IDS+=("$(jget "$WORK/submit.json" id)")
done

echo "== kill -9 the first replica holding work, mid-batch"
VICTIM=""
for _ in $(seq 1 100); do
  curl -sf "$ROUTER/v1/stats" -o "$WORK/stats.json" || fail "router stats"
  for i in 0 1 2; do
    if [ "$(jget "$WORK/stats.json" "replicas.$i.submits")" -ge 1 ] 2>/dev/null; then
      VICTIM="$i"
      break 2
    fi
  done
  sleep 0.1
done
[ -n "$VICTIM" ] || fail "no replica ever received a placement"
VICTIM_PID="${PIDS[$VICTIM]}"
kill -9 "$VICTIM_PID"
wait "$VICTIM_PID" 2>/dev/null || true
echo "   killed replica $((VICTIM + 1)) (pid $VICTIM_PID)"

echo "== every job completes through the router, zero client errors"
for id in "${IDS[@]}"; do
  st=""
  for _ in $(seq 1 600); do
    curl -sf "$ROUTER/v1/jobs/$id" -o "$WORK/job.json" || fail "GET $id through the router"
    st="$(jget "$WORK/job.json" status)"
    case "$st" in
      done) break ;;
      failed) fail "job $id failed across the kill: $(cat "$WORK/job.json")" ;;
      *) sleep 0.2 ;;
    esac
  done
  [ "$st" = "done" ] || fail "job $id never finished after the kill"
done
echo "   all ${#IDS[@]} jobs done"

curl -sf "$ROUTER/v1/stats" -o "$WORK/stats.json" || fail "router stats"
FAILOVERS="$(jget "$WORK/stats.json" failovers)"
[ "${FAILOVERS:-0}" -ge 1 ] || fail "router recorded no failover (stats: $(cat "$WORK/stats.json"))"
echo "   router recorded $FAILOVERS failover(s)"

echo "== restart the victim at its old address: breaker must reclose"
PIDS+=("$(start_replica $((VICTIM + 1)))")
RECLOSED=""
for _ in $(seq 1 150); do
  curl -sf "$ROUTER/v1/stats" -o "$WORK/stats.json" || fail "router stats"
  if [ "$(jget "$WORK/stats.json" "replicas.$VICTIM.breaker")" = "closed" ] \
    && [ "$(jget "$WORK/stats.json" "replicas.$VICTIM.ready")" = "true" ]; then
    RECLOSED=1
    break
  fi
  sleep 0.1
done
[ -n "$RECLOSED" ] || fail "victim breaker never reclosed after restart: $(cat "$WORK/stats.json")"
echo "   breaker reclosed, replica ready again"

echo "== reference run: uninterrupted single mapd, byte-identical quality"
"$WORK/mapd" -addr "127.0.0.1:${REF_PORT}" -workers 2 \
  -cache-dir "$WORK/refcache" -job-dir "$WORK/refjobs" \
  >>"$WORK/ref.log" 2>&1 &
PIDS+=($!)
wait_http_ok "$REF/readyz" "reference mapd"
QUALITY_FIELDS="topology pes graph_n graph_m cut_before cut_after coco_before coco_after coco_quotient dilation_before dilation_after imbalance_before imbalance_after hierarchies_kept swaps_applied"
for n in "${!SEEDS[@]}"; do
  seed="${SEEDS[$n]}"
  # shellcheck disable=SC2059
  curl -sf "$REF/v1/jobs" -d "$(printf "$JOB_BODY" "$seed")" -o "$WORK/refsubmit.json" \
    || fail "reference submit seed $seed"
  rid="$(jget "$WORK/refsubmit.json" id)"
  curl -sf "$REF/v1/jobs/$rid?wait=1" -o "$WORK/refjob.json" || fail "reference wait $rid"
  [ "$(jget "$WORK/refjob.json" status)" = "done" ] || fail "reference job seed $seed not done"
  curl -sf "$ROUTER/v1/jobs/${IDS[$n]}" -o "$WORK/job.json" || fail "refetch ${IDS[$n]}"
  for f in $QUALITY_FIELDS; do
    a="$(jget "$WORK/job.json" "$f")"
    b="$(jget "$WORK/refjob.json" "$f")"
    [ "$a" = "$b" ] || fail "seed $seed: $f diverged across failover ($a vs reference $b)"
  done
done
echo "   ${#SEEDS[@]} jobs × $(echo "$QUALITY_FIELDS" | wc -w) quality fields identical to reference"

echo "PASS: fleet chaos (kill -9 mid-batch, $FAILOVERS failover(s), breaker reclosed, results byte-identical)"
