#!/usr/bin/env bash
# dist-smoke: the end-to-end gate on the fault-tolerant distributed search.
# Boots two real `iotml search-worker` processes, runs `iotml fit
# -dist-workers` over the same committed CSV the fit-smoke uses, SIGKILLs
# one worker as soon as the first shard is dispatched, and asserts that the
# selection still matches the committed fit-smoke golden — worker loss
# costs re-dispatches, never correctness. A second phase points the fit at
# a fleet of dead addresses and asserts the coordinator's graceful local
# fallback reproduces the same selection. A third phase runs a budgeted
# fit (approximate sweep on the fleet, exact top-K re-score in-process)
# over the surviving worker and asserts it selects what the same budgeted
# fit selects in-process.
#
# The golden is testdata/fit-smoke/selection.golden.txt: a distributed fit
# is bit-identical to the in-process fit that produced it, so the two
# smokes share one fixture.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
FIX="$ROOT/testdata/fit-smoke"
TMP="$(mktemp -d)"
W1_PID=""
W2_PID=""
FIT_PID=""
cleanup() {
  for pid in "$FIT_PID" "$W1_PID" "$W2_PID"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

cd "$ROOT"
go build -o "$TMP/iotml" ./cmd/iotml

# start_worker LOGFILE -> prints the bound address. Port 0 lets the kernel
# pick, so parallel CI jobs never collide.
start_worker() {
  local log=$1
  "$TMP/iotml" search-worker -addr 127.0.0.1:0 > "$log" 2>&1 &
  local pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -nE 's/^search-worker: listening on ([^ ]+).*/\1/p' "$log" | head -1)
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "dist-smoke: worker exited early:" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "dist-smoke: worker never reported its address" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "$pid $addr"
}

echo "dist-smoke: starting two search workers"
read -r W1_PID W1_ADDR <<< "$(start_worker "$TMP/worker1.log")"
read -r W2_PID W2_ADDR <<< "$(start_worker "$TMP/worker2.log")"
echo "dist-smoke: workers at $W1_ADDR and $W2_ADDR"

FIT_ARGS=(-parallel 1 fit -data "$FIX/train.csv" -kernel linear
  -views "face:face_0,face_1;fingerprint:fingerprint_0,fingerprint_1;eeg:eeg_0,eeg_1")

echo "dist-smoke: distributed fit with one worker SIGKILLed mid-sweep"
"$TMP/iotml" "${FIT_ARGS[@]}" -o "$TMP/model-dist.iotml" -v \
  -dist-workers "$W1_ADDR,$W2_ADDR" -dist-attempts 2 -dist-deadline 10s \
  > "$TMP/fit-dist.log" 2> "$TMP/fit-dist.err" &
FIT_PID=$!

# Kill worker 1 the moment the first shard is dispatched (or immediately
# after the fit finishes, if it outran us — the selection assertion below
# holds either way).
for _ in $(seq 1 100); do
  if grep -q 'fit: dist: shard-dispatched' "$TMP/fit-dist.err" 2>/dev/null; then
    break
  fi
  kill -0 "$FIT_PID" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$W1_PID" 2>/dev/null || true
W1_PID=""

fit_code=0
wait "$FIT_PID" || fit_code=$?
FIT_PID=""
if [ "$fit_code" != 0 ]; then
  echo "dist-smoke: distributed fit failed ($fit_code):" >&2
  cat "$TMP/fit-dist.err" >&2
  exit 1
fi
grep -q 'fit: dist: shard-dispatched' "$TMP/fit-dist.err"

# The distributed selection must match the committed in-process golden
# (the paper's actual selection; scores are asserted by fit-smoke).
want=$(sed -nE 's/^best partition: ([^ ]+).*/\1/p' "$FIX/selection.golden.txt")
got=$(sed -nE 's/^best partition: ([^ ]+).*/\1/p' "$TMP/fit-dist.log")
if [ -z "$got" ] || [ "$got" != "$want" ]; then
  echo "dist-smoke: distributed fit selected $got, golden $want" >&2
  cat "$TMP/fit-dist.err" >&2
  exit 1
fi
echo "dist-smoke: selection survived the worker kill ($got)"

echo "dist-smoke: budgeted fit over the fleet vs in-process"
BUDGET_ARGS=(-backend nystrom:16 -budget-topk 4)
"$TMP/iotml" "${FIT_ARGS[@]}" "${BUDGET_ARGS[@]}" -o "$TMP/model-budget-local.iotml" \
  > "$TMP/fit-budget-local.log"
"$TMP/iotml" "${FIT_ARGS[@]}" "${BUDGET_ARGS[@]}" -o "$TMP/model-budget-dist.iotml" -v \
  -dist-workers "$W1_ADDR,$W2_ADDR" -dist-attempts 2 -dist-deadline 10s \
  > "$TMP/fit-budget-dist.log" 2> "$TMP/fit-budget-dist.err"
grep -q 'fit: dist: shard-dispatched' "$TMP/fit-budget-dist.err"
want_budget=$(sed -nE 's/^best partition: ([^ ]+).*/\1/p' "$TMP/fit-budget-local.log")
got=$(sed -nE 's/^best partition: ([^ ]+).*/\1/p' "$TMP/fit-budget-dist.log")
if [ -z "$got" ] || [ "$got" != "$want_budget" ]; then
  echo "dist-smoke: distributed budgeted fit selected $got, in-process budgeted fit $want_budget" >&2
  cat "$TMP/fit-budget-dist.err" >&2
  exit 1
fi
cmp "$TMP/model-budget-local.iotml" "$TMP/model-budget-dist.iotml"
echo "dist-smoke: budgeted fit over the fleet matched in-process ($got)"

echo "dist-smoke: distributed fit against an all-dead fleet"
"$TMP/iotml" "${FIT_ARGS[@]}" -o "$TMP/model-fallback.iotml" -v \
  -dist-workers "127.0.0.1:9,127.0.0.1:13" -dist-attempts 1 -dist-deadline 5s \
  > "$TMP/fit-fallback.log" 2> "$TMP/fit-fallback.err"
grep -q 'fit: dist: dist-fallback' "$TMP/fit-fallback.err"
got=$(sed -nE 's/^best partition: ([^ ]+).*/\1/p' "$TMP/fit-fallback.log")
if [ -z "$got" ] || [ "$got" != "$want" ]; then
  echo "dist-smoke: fallback fit selected $got, golden $want" >&2
  cat "$TMP/fit-fallback.err" >&2
  exit 1
fi
echo "dist-smoke: local fallback reproduced the selection ($got)"

echo "dist-smoke: OK (kill-mid-sweep and dead-fleet fallback match the golden; budgeted fleet fit matches in-process)"
