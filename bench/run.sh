#!/usr/bin/env bash
# Driver entry point: builds the benchmark from source into .bench_build/ at
# the root of the checkout (once; again only when a source file is newer than
# the binary) and runs it with the given arguments. Everything the build and
# the run write — Go's caches, temp files, durable peers' directories — stays
# under .bench_build/, inside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
bin="$build/codb-bench"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

stale() {
	[ ! -x "$bin" ] && return 0
	[ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]
}
if stale; then
	# The benchmark is a module of its own that replaces module codb with
	# the checkout around it; without that checkout the build fails here.
	go build -C "$root/bench" -o "$bin" . >&2
fi
cd "$root"
exec "$bin" "$@"
