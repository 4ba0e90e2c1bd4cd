#!/usr/bin/env bash
# Interleaved parent/change comparison of one benchmark workload.
#
#   scripts/bench_pairs.sh <parent-dir> <change-dir> <workload> <pairs> <seconds> [first-seed]
#
# Runs bench/run.sh of each checkout <pairs> times, one seed per pair
# (first-seed, first-seed+1, ...; default 1), alternating which side runs
# first. For every end-to-end metric BENCHMARK.json declares it prints each
# pair, each side's median and quartiles, and the number of pairs the change
# wins (ties count for neither side), then says whether a gain may be
# claimed: wins in at least nine tenths of the pairs and medians further
# apart than the parent's interquartile spread. Every run must exit 0 with a
# correct result and no failed operations; otherwise the script exits 1
# after the tables. The raw result lines are kept in
# $BENCH_PAIRS_OUT (default: a temp file, whose path is printed).
set -euo pipefail

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
	echo "usage: $0 <parent-dir> <change-dir> <workload> <pairs> <seconds> [first-seed]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3 pairs=$4 seconds=$5 seed0=${6:-1}
out=${BENCH_PAIRS_OUT:-$(mktemp "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")}
: >"$out"

run() { # side dir seed
	local line
	if ! line=$(bash "$2/bench/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1); then
		line='{"correct":false,"error":"run exited non-zero"}'
	fi
	printf '%s\t%s\t%s\n' "$1" "$3" "$line" >>"$out"
}

for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	if ((i % 2 == 0)); then
		run parent "$parent" "$seed"
		run change "$change" "$seed"
	else
		run change "$change" "$seed"
		run parent "$parent" "$seed"
	fi
	echo "pair $((i + 1))/$pairs (seed $seed) done" >&2
done

echo "results: $out" >&2
python3 - "$change/BENCHMARK.json" "$out" "$workload" "$seconds" <<'EOF'
import json, sys

spec, path, workload, seconds = sys.argv[1:]
metrics = json.load(open(spec))["end_to_end"]
runs = {}  # seed -> side -> result
bad = []
for line in open(path):
    side, seed, raw = line.rstrip("\n").split("\t", 2)
    try:
        res = json.loads(raw)
    except ValueError:
        res = {"correct": False, "error": raw[:80]}
    if not res.get("correct") or res.get("failed", 0):
        bad.append(f"{side} seed {seed}: {res.get('error') or 'correct=%s failed=%s' % (res.get('correct'), res.get('failed'))}")
    runs.setdefault(int(seed), {})[side] = res

def quartiles(xs):
    xs = sorted(xs)
    def med(v):
        n = len(v)
        return (v[(n - 1) // 2] + v[n // 2]) / 2
    h = len(xs) // 2
    lo, hi = xs[:h], xs[len(xs) - h:]
    return (med(lo) if lo else xs[0]), med(xs), (med(hi) if hi else xs[-1])

print(f"{workload}, {len(runs)} pairs, {seconds} s windows, seeds {min(runs)}-{max(runs)}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    pairs = []
    for seed in sorted(runs):
        try:
            p = runs[seed]["parent"]["metrics"][name]["value"]
            c = runs[seed]["change"]["metrics"][name]["value"]
        except KeyError:
            continue
        pairs.append((seed, p, c))
    if not pairs:
        continue
    print(f"\n{name} ({m['unit']}, {m['better']} is better)")
    print(f"  {'seed':>4}  {'parent':>12}  {'change':>12}  change/parent")
    wins = 0
    for seed, p, c in pairs:
        won = (c < p) if lower else (c > p)
        wins += won
        ratio = c / p if p else float("nan")
        print(f"  {seed:>4}  {p:>12.4g}  {c:>12.4g}  {ratio:6.3f}{'  win' if won else ''}")
    pq, cq = quartiles([p for _, p, _ in pairs]), quartiles([c for _, _, c in pairs])
    print(f"  parent median {pq[1]:.4g} [q1 {pq[0]:.4g}, q3 {pq[2]:.4g}]")
    print(f"  change median {cq[1]:.4g} [q1 {cq[0]:.4g}, q3 {cq[2]:.4g}]  ({cq[1] / pq[1] - 1:+.1%})")
    gain = cq[1] - pq[1] if not lower else pq[1] - cq[1]
    claim = wins * 10 >= 9 * len(pairs) and gain > pq[2] - pq[0]
    print(f"  change wins {wins}/{len(pairs)}; median gain {gain:.4g} vs parent IQR {pq[2] - pq[0]:.4g}: gain {'claimable' if claim else 'not claimable'}")
for b in bad:
    print(f"FAILED RUN: {b}")
sys.exit(1 if bad else 0)
EOF
