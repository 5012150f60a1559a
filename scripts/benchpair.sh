#!/usr/bin/env bash
# Paired before/after runs of the end-to-end benchmark from one command.
# Run from the repository root:
#
#   bash scripts/benchpair.sh <base-rev> [workloads] [pairs] [seconds]
#
# workloads is a comma-separated list (default: every workload in
# BENCHMARK.json), pairs the number of pairs per workload (default 10),
# seconds the window of each run (default BENCHMARK.json's run_seconds).
#
# The base revision's tree is extracted with `git archive` into a temporary
# directory. Each pair runs `bash bench/run.sh` once in that tree and once
# in the working tree, with the same fresh seed on both sides, and
# alternates which side runs first. After both sides' first build, the
# script prints the addresses of the hot kernels in both benchmark binaries
# and flags every kernel that moved by an amount that is not a multiple of
# 64 bytes: the end-to-end figures move with code layout, so such a pair
# compares layouts as well as code. Every run's result line is printed as
# it finishes; then, for each workload and end-to-end metric, both sides'
# medians and quartiles and the number of pairs the working tree won (ties
# count for neither). The script exits nonzero if any run fails or reports
# "correct": false, and removes the temporary directory on every exit.
#
# It also writes what it prints as JSON to .bench_build/benchpair.json: the
# command, both revisions, the first run's "# env" lines, the kernel
# addresses, every run's raw result and the per-metric summary. Copy that
# file to a BENCH_<topic>.json to record a claim.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <base-rev> [workloads] [pairs] [seconds]" >&2
	exit 2
fi
command="bash scripts/benchpair.sh $*"
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify "$1^{commit}")
workloads=${2:-$(jq -r '[.workloads[].name] | join(",")' BENCHMARK.json)}
pairs=${3:-10}
seconds=${4:-$(jq -r '.run_seconds' BENCHMARK.json)}

tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"

results="$tmp/results.jsonl"
: >"$results"
envlines="$tmp/env.txt"
ok=1
# run <side> <dir> <workload> <pair> <seed>: one benchmark run, its result
# line printed and kept.
run() {
	local out line
	out="$tmp/run.out"
	if ! (cd "$2" && bash bench/run.sh --workload "$3" --seed "$5" --seconds "$seconds" --trace 0) >"$out"; then
		echo "$1 pair $4 $3 seed $5: bench/run.sh failed" >&2
		ok=0
		return
	fi
	line=$(tail -n 1 "$out")
	if [ ! -e "$envlines" ]; then
		grep '^# env ' "$out" | sed 's/^# //' >"$envlines" || true
	fi
	echo "$1 pair $4 $3 seed $5: $line"
	jq -c --arg side "$1" --arg wl "$3" --argjson pair "$4" '{side: $side, workload: $wl, pair: $pair, result: .}' \
		<<<"$line" >>"$results"
	if [ "$(jq -r '.correct' <<<"$line")" != true ]; then
		ok=0
	fi
}

# kernels prints the hot kernels' addresses in both benchmark binaries and
# how far each moved.
kernels() {
	local s b c d flag
	go tool nm -n "$tmp/base/.bench_build/sdcbench" >"$tmp/base.nm" &&
		go tool nm -n "$root/.bench_build/sdcbench" >"$tmp/change.nm" || {
		echo "kernels: a benchmark binary is missing" >&2
		return
	}
	printf '%-24s %10s %10s %7s\n' kernel base change moved
	for s in vec.Dot vec.Axpy vec.Norm2 kernel.Dot 'sparse.(*CSR).MatVec' 'core.(*Solver).solve'; do
		b=$(awk -v s="sdcgmres/internal/$s" '$3 == s { print $1 }' "$tmp/base.nm")
		c=$(awk -v s="sdcgmres/internal/$s" '$3 == s { print $1 }' "$tmp/change.nm")
		if [ -z "$b" ] || [ -z "$c" ]; then
			printf '%-24s %10s %10s\n' "$s" "${b:--}" "${c:--}"
			continue
		fi
		d=$((0x$c - 0x$b))
		flag=
		if ((d % 64)); then
			flag="  <- not 0 mod 64"
		fi
		printf '%-24s %10s %10s %+7d%s\n' "$s" "$b" "$c" "$d" "$flag"
	done
}

rev=$(git rev-parse HEAD)
echo "base $base, change: working tree of $rev; $pairs pairs of ${seconds}s runs"
shown=0
IFS=, read -r -a wls <<<"$workloads"
for wl in "${wls[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		seed=$(((RANDOM << 15 | RANDOM) + 1))
		if ((i % 2)); then
			run base "$tmp/base" "$wl" "$i" "$seed"
			run change "$root" "$wl" "$i" "$seed"
		else
			run change "$root" "$wl" "$i" "$seed"
			run base "$tmp/base" "$wl" "$i" "$seed"
		fi
		if [ "$shown" = 0 ]; then
			kernels | tee "$tmp/kernels.txt"
			shown=1
		fi
	done
done

mkdir -p .bench_build
python3 - "$results" BENCHMARK.json "$tmp" .bench_build/benchpair.json "$command" "$base" "$rev" <<'EOF'
import json, os, statistics, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
metrics = json.load(open(sys.argv[2]))["end_to_end"]

def lines(name):
    path = os.path.join(sys.argv[3], name)
    return open(path).read().splitlines() if os.path.exists(path) else []

summary = []

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))

print(f"{'workload':<12} {'metric':<14} {'better':<6} {'base q1/median/q3':>26} {'change q1/median/q3':>26} {'change':>8} {'wins':>6} gap>IQR")
for wl in dict.fromkeys(r["workload"] for r in runs):
    by_pair = {}
    for r in runs:
        if r["workload"] == wl:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
    both = [p for p in by_pair.values() if len(p) == 2]
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base = [p["base"][name]["value"] for p in both]
        change = [p["change"][name]["value"] for p in both]
        if not both:
            continue
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        rel = (cq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
        gap = abs(cq[1] - bq[1]) > bq[2] - bq[0]
        fmt = lambda q: "%.4g/%.4g/%.4g" % q
        print(f"{wl:<12} {name:<14} {m['better']:<6} {fmt(bq):>26} {fmt(cq):>26} {rel:>+8.1%} {wins:>3}/{len(both):<2} {'yes' if gap else 'no'}")
        summary.append({"workload": wl, "metric": name, "better": m["better"],
                        "base_quartiles": list(bq), "change_quartiles": list(cq),
                        "change": None if rel != rel else rel, "pairs": len(both), "pairs_won": wins,
                        "gap_above_base_iqr": gap})

with open(sys.argv[4], "w") as f:
    json.dump({"command": sys.argv[5], "base": sys.argv[6], "change": "working tree of " + sys.argv[7],
               "env": lines("env.txt"), "kernels": lines("kernels.txt"), "runs": runs, "summary": summary}, f, indent=1)
    f.write("\n")
print("wrote " + sys.argv[4])
EOF

if [ "$ok" != 1 ]; then
	echo "benchpair: a run failed or reported correct: false" >&2
	exit 1
fi
