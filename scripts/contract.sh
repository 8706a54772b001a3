#!/usr/bin/env bash
# contract: run one contract check — `go test -run REGEX -count=1 -v
# [FLAGS] PKG` — and fail unless every |-separated alternative of REGEX
# matched at least one top-level test. `go test` reports a -run pattern
# that matches nothing as "[no tests to run]" and exits 0, so without
# this check a renamed test would silently turn its contract green.
#
# Usage: scripts/contract.sh REGEX PKG [go test flags...]
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 REGEX PKG [go test flags...]" >&2
  exit 2
fi
regex=$1
pkg=$2
shift 2

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
go test "$@" -run "$regex" -count=1 -v "$pkg" | tee "$out"

# Top-level tests that ran: "=== RUN   TestName", subtests excluded.
ran="$(sed -n 's/^=== RUN   \([^/]*\)$/\1/p' "$out" | sort -u)"
missing=0
IFS='|' read -ra alts <<< "$regex"
for alt in "${alts[@]}"; do
  if ! grep -Eq -- "$alt" <<< "$ran"; then
    echo "contract: -run alternative '$alt' matched no test in $pkg" >&2
    missing=1
  fi
done
exit "$missing"
