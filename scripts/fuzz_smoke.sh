#!/usr/bin/env bash
# Runs every fuzz target of the root module for a short while:
#
#   bash scripts/fuzz_smoke.sh [seconds]   # default 10 per target
#
# Each Fuzz* function is found in the _test.go files and fuzzed alone in its
# package; the first failure stops the script. Fuzzing writes any failing
# input under the package's testdata/fuzz, as go test does.
set -euo pipefail
cd "$(dirname "$0")/.."
secs=${1:-10}
grep -rl --include='*_test.go' --exclude-dir=bench -E '^func Fuzz[A-Za-z0-9_]*\(' . | sort | while read -r file; do
	pkg=./$(dirname "${file#./}")
	for fn in $(grep -oE '^func Fuzz[A-Za-z0-9_]*' "$file" | cut -d' ' -f2); do
		echo "== $fn ($pkg, ${secs}s)"
		go test -run '^$' -fuzz "^${fn}\$" -fuzztime "${secs}s" -parallel 2 "$pkg"
	done
done
