#!/usr/bin/env bash
# fit-smoke: the end-to-end gate on the real-data fit path. Trains via the
# new CLI ingestion route — `iotml fit -data` on the committed tiny CSV
# (40-row biometric workload, linear kernel + ridge so every float op is
# IEEE exact) — captures the progress stream as JSONL, and asserts that
# the selected partition matches the committed golden selection.
#
# A second fit of the same CSV with the default kernel (rbf, chain search)
# pins the RBF block path: its selection lines and the artifact's SHA-256
# must match testdata/fit-smoke/rbf.golden.txt. Its exp values follow
# math.Exp's FMA branch, so that diff also assumes an amd64 host with FMA.
#
# The full selection lines (scores included) pin amd64 float codegen, so
# their diff only runs where CI runs; the partition comparison — the
# paper's actual selection — runs on every architecture.
#
# Regenerate the golden deliberately with: UPDATE=1 scripts/fit_smoke.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
FIX="$ROOT/testdata/fit-smoke"
TMP="$(mktemp -d)"
cleanup() { rm -rf "$TMP"; }
trap cleanup EXIT

cd "$ROOT"
go build -o "$TMP/iotml" ./cmd/iotml

echo "fit-smoke: fitting from $FIX/train.csv"
"$TMP/iotml" -parallel 1 fit -o "$TMP/model.iotml" \
  -data "$FIX/train.csv" -kernel linear \
  -views "face:face_0,face_1;fingerprint:fingerprint_0,fingerprint_1;eeg:eeg_0,eeg_1" \
  -progress-jsonl "$TMP/progress.jsonl" > "$TMP/fit.log"

grep -E '^(seed|best) partition:' "$TMP/fit.log" > "$TMP/selection.txt"

echo "fit-smoke: fitting the default (rbf) kernel from $FIX/train.csv"
"$TMP/iotml" -parallel 1 fit -o "$TMP/rbf.iotml" \
  -data "$FIX/train.csv" \
  -views "face:face_0,face_1;fingerprint:fingerprint_0,fingerprint_1;eeg:eeg_0,eeg_1" > "$TMP/rbf.log"
{
  grep -E '^(seed|best) partition:' "$TMP/rbf.log"
  echo "artifact sha256: $(sha256sum "$TMP/rbf.iotml" | cut -d' ' -f1)"
} > "$TMP/rbf.txt"

if [ "${UPDATE:-}" = 1 ]; then
  cp "$TMP/selection.txt" "$FIX/selection.golden.txt"
  cp "$TMP/rbf.txt" "$FIX/rbf.golden.txt"
  echo "fit-smoke: golden regenerated under $FIX"
  exit 0
fi

# The progress stream must be present and well-formed: it starts with the
# seed, ends with fit-finished, and carries candidate evaluations between.
head -1 "$TMP/progress.jsonl" | grep -q '"kind":"seed-selected"'
tail -1 "$TMP/progress.jsonl" | grep -q '"kind":"fit-finished"'
grep -q '"kind":"candidate-evaluated"' "$TMP/progress.jsonl"

# The artifact must exist and be loadable by the offline scorer.
echo '{"instances": [[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]]}' > "$TMP/req.json"
"$TMP/iotml" predict -m "$TMP/model.iotml" -in "$TMP/req.json" > /dev/null

if [ "$(go env GOARCH)" = amd64 ]; then
  diff -u "$FIX/selection.golden.txt" "$TMP/selection.txt"
  diff -u "$FIX/rbf.golden.txt" "$TMP/rbf.txt"
else
  echo "fit-smoke: skipping full-line golden diffs on $(go env GOARCH) (scores are amd64-pinned)"
fi

# Architecture-independent check: the selected partition itself.
want=$(sed -nE 's/^best partition: ([^ ]+).*/\1/p' "$FIX/selection.golden.txt")
got=$(sed -nE 's/^best partition: ([^ ]+).*/\1/p' "$TMP/selection.txt")
if [ -z "$got" ] || [ "$got" != "$want" ]; then
  echo "fit-smoke: selected partition $got, golden $want" >&2
  exit 1
fi

echo "fit-smoke: OK (selections == goldens, progress stream well-formed)"
