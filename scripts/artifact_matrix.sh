#!/usr/bin/env bash
# artifact-matrix: fits 30 `iotml fit` artifacts (ten configurations, seeds
# 1-3) and prints one line per fit: `config seed sha256`. Any change meant
# to keep every bit runs it on the parent tree and on the change, and
# diffs the two outputs; they must be identical.
#
# The synthetic configurations fit `-workload biometric` (d=18) with the
# seed as the workload generator seed. The two exhaustive configurations
# fit testdata/artifact-matrix/d8n120.csv: 120 rows of
# iotml.SyntheticBiometric with NoiseFeatures = 2 (d=8) and NewRNG(1),
# written by iotml.WriteCSV, the same generator and shape as perfbench's
# fit-search input at seed 1 (fitCSV(1, 120, 2) in perfbench/inputs.go).
# With -data the seed reaches only the SVM seed, so their three seeds fit
# the same data.
#
# Usage: scripts/artifact_matrix.sh > matrix.txt
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CSV="$ROOT/testdata/artifact-matrix/d8n120.csv"
TMP="$(mktemp -d)"
cleanup() { rm -rf "$TMP"; }
trap cleanup EXIT

cd "$ROOT"
go build -o "$TMP/iotml" ./cmd/iotml

# name|flags; $SEED is the fit's -seed.
configs=(
  "rbf|-workload biometric -n 600"
  "linear|-workload biometric -n 600 -kernel linear"
  "norm-rbf|-workload biometric -n 600 -kernel norm-rbf"
  "product|-workload biometric -n 600 -combiner product"
  "f32|-workload biometric -n 600 -backend f32"
  "nystrom16-top4|-workload biometric -n 600 -backend nystrom:16 -budget-topk 4"
  "svm-n200|-workload biometric -n 200 -learner svm"
  "perceptron-n200|-workload biometric -n 200 -learner perceptron"
  "exhaustive-d8|-data $CSV -search exhaustive"
  "exhaustive-d8-f32|-data $CSV -search exhaustive -backend f32"
)

for c in "${configs[@]}"; do
  name="${c%%|*}"
  flags="${c#*|}"
  for seed in 1 2 3; do
    # shellcheck disable=SC2086 # flags is a word list
    "$TMP/iotml" fit -o "$TMP/model.iotml" -seed "$seed" $flags > /dev/null
    sum=$(sha256sum "$TMP/model.iotml" | cut -d' ' -f1)
    echo "$name $seed $sum"
  done
done
