#!/usr/bin/env bash
# Go line counts per package, split into non-test and test files:
#
#   bash scripts/loc.sh [pkg ...]
#
# Each pkg is a directory relative to the repository root (".", "internal/core",
# "codb.go" for one file); with none, every package directory of the root
# module is counted, bench/ (a module of its own) excluded. Prints one row per
# argument and a total row. Lines are physical lines, as wc -l counts them.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
	set -- $(find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -exec dirname {} \; | sed 's|^\./||' | sort -u)
fi

count() { # files... -> total lines (0 when none)
	if [ $# -eq 0 ]; then echo 0; else cat "$@" | wc -l; fi
}

total_src=0 total_test=0
printf '%-28s %8s %8s\n' package non-test test
for pkg in "$@"; do
	if [ -f "$pkg" ]; then
		case $pkg in
		*_test.go) src=() tests=("$pkg") ;;
		*) src=("$pkg") tests=() ;;
		esac
	elif [ -d "$pkg" ]; then
		src=() tests=()
		for f in "$pkg"/*.go; do
			[ -e "$f" ] || continue
			case $f in
			*_test.go) tests+=("$f") ;;
			*) src+=("$f") ;;
			esac
		done
	else
		echo "loc: no such package or file: $pkg" >&2
		exit 2
	fi
	s=$(count "${src[@]+"${src[@]}"}")
	t=$(count "${tests[@]+"${tests[@]}"}")
	total_src=$((total_src + s))
	total_test=$((total_test + t))
	printf '%-28s %8d %8d\n' "$pkg" "$s" "$t"
done
printf '%-28s %8d %8d\n' total "$total_src" "$total_test"
