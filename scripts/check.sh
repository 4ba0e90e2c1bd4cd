#!/usr/bin/env bash
# The full local gate, run from anywhere in the checkout:
#
#   bash scripts/check.sh
#
# Builds the root module, vets it, checks formatting, runs its tests under
# the race detector in shuffled order (as CI's test-race job does), runs
# every benchmark for one iteration (as CI's bench-smoke job does), runs
# every examples/*/ program (as CI's examples job does), fuzzes every Fuzz*
# target for 10 s (as CI's fuzz-smoke job does), then vets and
# tests the nested benchmark module (bench/), which the root module's
# ./... does not see. It stops at the first failure and edits nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...
echo "== go test -run '^\$' -bench . -benchtime=1x ./..."
go test -run '^$' -bench . -benchtime=1x ./...
for d in examples/*/; do
	echo "== go run ./$d"
	go run "./$d"
done
echo "== scripts/fuzz_smoke.sh"
bash scripts/fuzz_smoke.sh
echo "== bench: go vet ./... && go test ./..."
(cd bench && go vet ./... && go test ./...)
echo "check: ok"
