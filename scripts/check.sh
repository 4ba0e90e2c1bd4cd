#!/usr/bin/env bash
# The full local gate, run from anywhere in the checkout:
#
#   bash scripts/check.sh
#
# Builds the root module, vets it, checks formatting, runs its tests, then
# vets and tests the nested benchmark module (bench/), which the root
# module's ./... does not see. It stops at the first failure and edits
# nothing.
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
echo "== go test ./..."
go test ./...
echo "== bench: go vet ./... && go test ./..."
(cd bench && go vet ./... && go test ./...)
echo "check: ok"
