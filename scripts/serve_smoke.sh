#!/usr/bin/env bash
# serve-smoke: the end-to-end gate on the model lifecycle. Fits a tiny
# deterministic model (linear kernel + ridge, so every float op is IEEE
# exact and the committed goldens are platform-stable), scores a committed
# request with `iotml predict`, starts `iotml serve`, and asserts that
# /v1/healthz answers, that /v1/models/default/predict reproduces the
# committed golden responses byte-for-byte for both a batched and a
# single-instance request, and that the batched and single scores agree
# exactly.
#
# Regenerate the goldens deliberately with: UPDATE=1 scripts/serve_smoke.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
FIX="$ROOT/testdata/serve-smoke"
TMP="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

cd "$ROOT"
go build -o "$TMP/iotml" ./cmd/iotml

echo "serve-smoke: fitting the smoke model"
"$TMP/iotml" -parallel 1 fit -o "$TMP/model.iotml" \
  -workload biometric -n 60 -kernel linear -learner ridge -seed 1 > "$TMP/fit.log"

echo "serve-smoke: offline predict"
"$TMP/iotml" predict -m "$TMP/model.iotml" -in "$FIX/request.json" > "$TMP/predict-batch.json"
"$TMP/iotml" predict -m "$TMP/model.iotml" -in "$FIX/request-single.json" > "$TMP/predict-single.json"

# The port walks forward on collision: if the chosen port is already
# bound (a parallel CI job, a stale server), the bind failure is detected
# and the next candidate is tried rather than failing the smoke.
BASE_PORT="${SERVE_SMOKE_PORT:-18321}"
up=""
for try in 0 1 2 3 4; do
  ADDR="127.0.0.1:$((BASE_PORT + try * 7))"
  echo "serve-smoke: starting iotml serve on $ADDR"
  "$TMP/iotml" serve -m "$TMP/model.iotml" -addr "$ADDR" > "$TMP/serve.log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR/v1/healthz" > "$TMP/healthz.json" 2>/dev/null; then
      up=1
      break
    fi
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
  done
  [ -n "$up" ] && break
  if kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "serve-smoke: server did not come up on $ADDR" >&2
    cat "$TMP/serve.log" >&2
    exit 1
  fi
  SERVE_PID=""
  if grep -q 'address already in use' "$TMP/serve.log"; then
    echo "serve-smoke: $ADDR in use, trying the next port"
    continue
  fi
  echo "serve-smoke: server exited early:" >&2
  cat "$TMP/serve.log" >&2
  exit 1
done
if [ -z "$up" ]; then
  echo "serve-smoke: no free port after 5 tries from $BASE_PORT" >&2
  exit 1
fi

grep -q '"status":"ok"' "$TMP/healthz.json"
curl -fsS "http://$ADDR/v1/models/default" > "$TMP/model.json"
grep -q '"format_version":1' "$TMP/model.json"
grep -q '"learner_kind":"ridge"' "$TMP/model.json"

echo "serve-smoke: querying /v1/models/default/predict"
curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary @"$FIX/request.json" "http://$ADDR/v1/models/default/predict" > "$TMP/server-batch.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary @"$FIX/request-single.json" "http://$ADDR/v1/models/default/predict" > "$TMP/server-single.json"
curl -fsS "http://$ADDR/v1/models" > "$TMP/models.json"
grep -q '"id":"default"' "$TMP/models.json"
grep -Eq '"fingerprint":"[0-9a-f]{16}"' "$TMP/models.json"

# The Prometheus exposition must carry the per-model serving counters.
curl -fsS "http://$ADDR/v1/metrics" > "$TMP/metrics.txt"
grep -q '^iotml_requests_total{model="default"} ' "$TMP/metrics.txt"
grep -q '^iotml_shed_total{model="default"} 0' "$TMP/metrics.txt"
grep -q '^iotml_models 1' "$TMP/metrics.txt"

# Unknown models answer the structured error envelope with a stable code.
code=$(curl -s -o "$TMP/notfound.json" -w '%{http_code}' \
  -X POST --data-binary @"$FIX/request.json" "http://$ADDR/v1/models/ghost/predict")
if [ "$code" != 404 ]; then
  echo "serve-smoke: unknown model answered $code, want 404" >&2
  exit 1
fi
grep -q '"code":"model_not_found"' "$TMP/notfound.json"

# Malformed traffic must be rejected at the boundary, not crash a worker.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  --data-binary '{"instances": [[1, 2]]}' "http://$ADDR/v1/models/default/predict")
if [ "$code" != 400 ]; then
  echo "serve-smoke: wrong-dimension request answered $code, want 400" >&2
  exit 1
fi

if [ "${UPDATE:-}" = 1 ]; then
  cp "$TMP/server-batch.json" "$FIX/response-batch.golden.json"
  cp "$TMP/server-single.json" "$FIX/response-single.golden.json"
  echo "serve-smoke: goldens regenerated under $FIX"
  exit 0
fi

# The served responses, batched and single, must match the committed
# goldens byte-for-byte, and the offline predict output must match the
# served output (one scoring path, two transports). The goldens pin amd64
# float codegen — other architectures may contract mul-adds into FMA and
# shift last bits — so the golden diffs only run where CI runs; the
# internal-consistency checks below run everywhere.
if [ "$(go env GOARCH)" = amd64 ]; then
  diff -u "$FIX/response-batch.golden.json" "$TMP/server-batch.json"
  diff -u "$FIX/response-single.golden.json" "$TMP/server-single.json"
else
  echo "serve-smoke: skipping golden diffs on $(go env GOARCH) (goldens are amd64-pinned)"
fi
diff -u "$TMP/server-batch.json" "$TMP/predict-batch.json"
diff -u "$TMP/server-single.json" "$TMP/predict-single.json"

# Batched and single requests must agree on the shared instance's score
# (shortest-round-trip JSON floats, so textual equality is bit equality).
first_batch=$(sed -E 's/.*"scores":\[([0-9.eE+-]+)[],].*/\1/' "$TMP/server-batch.json")
first_single=$(sed -E 's/.*"scores":\[([0-9.eE+-]+)[],].*/\1/' "$TMP/server-single.json")
if [ -z "$first_batch" ] || [ "$first_batch" != "$first_single" ]; then
  echo "serve-smoke: batched score ($first_batch) != single score ($first_single)" >&2
  exit 1
fi

# Graceful shutdown: SIGTERM must drain the pipeline and exit 0 (the
# signal handler in `iotml serve` routes through Server.Shutdown).
echo "serve-smoke: asserting clean SIGTERM shutdown"
kill -TERM "$SERVE_PID"
shutdown_code=0
wait "$SERVE_PID" || shutdown_code=$?
SERVE_PID=""
if [ "$shutdown_code" != 0 ]; then
  echo "serve-smoke: SIGTERM exit code $shutdown_code, want 0:" >&2
  cat "$TMP/serve.log" >&2
  exit 1
fi
if ! grep -q "shutdown complete" "$TMP/serve.log"; then
  echo "serve-smoke: server log missing the graceful-shutdown marker:" >&2
  cat "$TMP/serve.log" >&2
  exit 1
fi

echo "serve-smoke: OK (batched == single == golden, clean shutdown)"
