#!/usr/bin/env bash
# mapd crash-recovery smoke: SIGKILL a mapd mid-batch and prove that a
# second mapd on the same -job-dir (a) requeues and finishes the
# interrupted jobs, (b) re-serves the finished ones by their old IDs,
# (c) answers a duplicate submission with the done job it repeats,
# from the ledger without recomputing, and (d) sheds over-quota
# submissions with 429 + Retry-After.
#
# Usage: scripts/mapd_crash_recovery.sh [port]
#
# Exits non-zero (with a diagnostic) on any failed assertion. Run from
# the repository root; needs only bash, curl and the go toolchain.
set -euo pipefail

PORT="${1:-18923}"
ADDR="127.0.0.1:${PORT}"
BASE="http://${ADDR}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/mapd-crash-XXXXXX")"
JOBDIR="$WORK/jobs"
MAPD="$WORK/mapd"
MAPD_PID=""

cleanup() {
  [ -n "$MAPD_PID" ] && kill -9 "$MAPD_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# jget FILE KEY — extract a scalar JSON field without jq. The helper is
# built once: `go run` costs ~100 ms per field, about one job's time,
# and the kill must land while the single worker still has jobs queued.
jget() {
  "$WORK/jsonfield" "$1" "$2"
}

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -sf "$BASE/v1/stats" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "mapd on $ADDR never became ready"
}

# Fail fast when the port is already bound: starting mapd against it
# would die immediately and every later curl would report confusing
# connection errors against whatever process actually owns the port.
if (exec 3<>"/dev/tcp/127.0.0.1/${PORT}") 2>/dev/null; then
  fail "port $PORT on 127.0.0.1 is already in use — pick a free one: scripts/mapd_crash_recovery.sh <port>"
fi

JOB_BODY='{"graph": {"network": "p2p-Gnutella", "scale": 0.25},
           "topology": "grid:8x8", "case": "identity",
           "num_hierarchies": 40, "seed": %d}'

submit() { # submit SEED -> job id on stdout
  local out="$WORK/submit.json"
  # shellcheck disable=SC2059
  curl -sf "$BASE/v1/jobs" -d "$(printf "$JOB_BODY" "$1")" -o "$out" \
    || fail "submitting seed $1"
  jget "$out" id
}

echo "== build mapd"
go build -o "$MAPD" ./cmd/mapd
go build -o "$WORK/jsonfield" ./scripts/jsonfield.go

echo "== first mapd: submit a batch on one worker, then kill -9"
"$MAPD" -addr "$ADDR" -workers 1 -job-dir "$JOBDIR" &
MAPD_PID=$!
wait_ready

IDS=()
for seed in 1 2 3 4 5 6; do
  IDS+=("$(submit "$seed")")
done
# Let the first job finish so the ledger holds a mix of done + pending.
curl -sf "$BASE/v1/jobs/${IDS[0]}?wait=1" -o "$WORK/first.json" \
  || fail "waiting for ${IDS[0]}"
[ "$(jget "$WORK/first.json" status)" = "done" ] || fail "first job did not finish"

kill -9 "$MAPD_PID"
wait "$MAPD_PID" 2>/dev/null || true
MAPD_PID=""
echo "   killed mid-batch (${#IDS[@]} jobs submitted, 1 known done)"

echo "== second mapd on the same -job-dir: recovery + dedup + quota"
"$MAPD" -addr "$ADDR" -workers 2 -job-dir "$JOBDIR" -quota 0.01 -quota-burst 3 &
MAPD_PID=$!
wait_ready

curl -sf "$BASE/v1/stats" -o "$WORK/stats.json"
RECOVERED="$(jget "$WORK/stats.json" jobs_recovered)"
[ "${RECOVERED:-0}" -ge 1 ] || fail "no jobs recovered after restart (stats: $(cat "$WORK/stats.json"))"
echo "   $RECOVERED unfinished jobs requeued from the WAL"

# (a) every job — including the recovered ones — reaches done.
for id in "${IDS[@]}"; do
  for _ in $(seq 1 600); do
    curl -sf "$BASE/v1/jobs/$id" -o "$WORK/job.json" || fail "GET $id"
    st="$(jget "$WORK/job.json" status)"
    case "$st" in
      done) break ;;
      failed|interrupted) fail "job $id finished $st after recovery" ;;
      *) sleep 0.2 ;;
    esac
  done
  [ "$st" = "done" ] || fail "job $id never finished after recovery"
done
echo "   all ${#IDS[@]} jobs done after restart (old IDs intact)"

# (b)+(c) a duplicate submission is answered with the job it repeats,
# done on arrival, without recomputing; the job itself is unchanged.
# shellcheck disable=SC2059
curl -sf "$BASE/v1/jobs" -d "$(printf "$JOB_BODY" 1)" -o "$WORK/dup.json" \
  || fail "duplicate submit"
[ "$(jget "$WORK/dup.json" status)" = "done" ] || fail "duplicate not served done-on-arrival: $(cat "$WORK/dup.json")"
[ "$(jget "$WORK/dup.json" served_from_ledger)" = "true" ] || fail "duplicate recomputed instead of ledger-served: $(cat "$WORK/dup.json")"
[ "$(jget "$WORK/dup.json" id)" = "${IDS[0]}" ] || fail "duplicate answered as a new job, not ${IDS[0]}: $(cat "$WORK/dup.json")"
curl -sf "$BASE/v1/jobs/${IDS[0]}" -o "$WORK/job.json" || fail "GET ${IDS[0]} after the duplicate"
[ "$(jget "$WORK/job.json" status)" = "done" ] || fail "${IDS[0]} not done after the duplicate: $(cat "$WORK/job.json")"
echo "   duplicate submission answered with ${IDS[0]} from the ledger (0 recomputes)"

# (d) the quota sheds: burst of 3 is spent, the next submission gets
# 429 with a usable Retry-After.
CODE=200
for seed in 101 102 103 104 105; do
  # shellcheck disable=SC2059
  CODE="$(curl -s -o "$WORK/shed.json" -w '%{http_code}' -D "$WORK/shed.hdr" \
    "$BASE/v1/jobs" -d "$(printf "$JOB_BODY" "$seed")")"
  [ "$CODE" = "429" ] && break
done
[ "$CODE" = "429" ] || fail "quota never shed (last status $CODE)"
grep -qi '^retry-after: [0-9]' "$WORK/shed.hdr" || fail "429 without Retry-After: $(cat "$WORK/shed.hdr")"
echo "   over-quota submission shed with 429 + Retry-After"

kill "$MAPD_PID" 2>/dev/null || true
wait "$MAPD_PID" 2>/dev/null || true
MAPD_PID=""

echo "PASS: mapd crash recovery (kill -9, $RECOVERED requeued, dedup + 429 verified)"
