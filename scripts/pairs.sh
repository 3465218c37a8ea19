#!/usr/bin/env bash
# pairs.sh runs alternating baseline/change pairs of one benchmark
# workload and records every run in BENCH_<PR>.json at the repo root.
#
#   scripts/pairs.sh -p <PR> -b <parent commit> -w lockstep -n 10
#
#   -p PR        names the record, BENCH_<PR>.json; runs are appended to it
#   -b COMMIT    the baseline; the change is the working tree as it is
#   -w WORKLOAD  stencil, multiwriter, lockstep or outofcore
#   -n PAIRS     how many pairs (default 10)
#
# Each side's ./benchmark is built once: the baseline from `git archive`
# of its commit, the change from the working tree in place. `git
# archive` rather than a worktree registers nothing in the repository,
# so an interrupted run leaves nothing to prune. Every run is one
# `-workload W` process, at the benchmark's own window length, in a
# scratch directory of its side's own. Pair k runs the baseline first
# when k is odd and the change first when it is even, so half the pairs
# are baseline-first. The result object each run prints last is
# appended to the record with its workload, pair, side, order and
# commit.
#
# Then, for the workload, it prints per end-to-end metric of
# BENCHMARK.json both medians, the baseline's interquartile range and
# how many pairs the change won; and, once the record holds all of
# BENCHMARK.json's workloads on both sides, `benchmark -compare`'s
# verdict on the two sets. Needs git, go and jq.
set -euo pipefail

usage() {
	sed -n '5,10p' "$0" >&2
	exit 2
}

pr= base= workload= pairs=10
while getopts p:b:w:n: opt; do
	case $opt in
	p) pr=$OPTARG ;;
	b) base=$OPTARG ;;
	w) workload=$OPTARG ;;
	n) pairs=$OPTARG ;;
	*) usage ;;
	esac
done
[ -n "$pr" ] && [ -n "$base" ] && [ -n "$workload" ] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
record=$root/BENCH_$pr.json
spec=$root/BENCHMARK.json
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/base/src" "$tmp/base/run" "$tmp/change/run"
base_commit=$(git rev-parse --verify "$base^{commit}")
git archive "$base_commit" | tar -x -C "$tmp/base/src"
(cd "$tmp/base/src" && go build -o "$tmp/base/bench" ./benchmark)
change_commit=$(git rev-parse HEAD)+worktree
go build -o "$tmp/change/bench" ./benchmark
echo "baseline $base_commit, change $change_commit: $pairs pairs of $workload" >&2

[ -f "$record" ] || jq -n --arg cpu "$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ //')" \
	--argjson nproc "$(nproc)" --arg go "$(go env GOVERSION)" \
	'{host: {cpu: $cpu, nproc: $nproc, go: $go}, runs: []}' >"$record"
first_pair=$(jq --arg w "$workload" '[.runs[] | select(.workload == $w) | .pair] | max // 0 | . + 1' "$record")

# run SIDE PAIR FIRST runs one window on SIDE and appends its result.
run() {
	local side=$1 pair=$2 first=$3 commit line
	commit=$base_commit
	[ "$side" = base ] || commit=$change_commit
	line=$(cd "$tmp/$side/run" && "$tmp/$side/bench" -workload "$workload" 2>>"$tmp/$side/log" | tail -n 1) || true
	if ! jq -e .metrics >/dev/null 2>&1 <<<"$line"; then
		echo "pair $pair, $side: no result (log: see below)" >&2
		tail -n 20 "$tmp/$side/log" >&2
		exit 1
	fi
	jq --argjson res "$line" --arg w "$workload" --argjson pair "$pair" --arg side "$side" \
		--arg first "$first" --arg commit "$commit" \
		'.runs += [{workload: $w, pair: $pair, side: $side, first: $first, commit: $commit, result: $res}]' \
		"$record" >"$tmp/record" && mv "$tmp/record" "$record"
	echo "pair $pair, $side: epochs_per_s $(jq '.metrics.epochs_per_s.value' <<<"$line")" >&2
}

for ((k = first_pair; k < first_pair + pairs; k++)); do
	if ((k % 2)); then
		run base "$k" base && run change "$k" base
	else
		run change "$k" change && run base "$k" change
	fi
done

echo
echo "$workload: medians over every run in $(basename "$record"); won = pairs where the change is better"
printf '%-22s %14s %12s %14s %8s\n' metric baseline "base IQR" change won
jq -r --arg w "$workload" --slurpfile spec "$spec" '
	def median: sort | if length % 2 == 1 then .[length / 2 | floor] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def quantile(p): sort | (p * (length - 1)) as $x | ($x | floor) as $i
		| if $i + 1 >= length then .[-1] else .[$i] + ($x - $i) * (.[$i + 1] - .[$i]) end;
	[.runs[] | select(.workload == $w)] as $runs
	| $spec[0].end_to_end[] as $m
	| def vals($side): [$runs[] | select(.side == $side) | .result.metrics[$m.name].value | select(. != null)];
	  def at($p; $side): [$runs[] | select(.pair == $p and .side == $side) | .result.metrics[$m.name].value][0];
	  vals("base") as $a | vals("change") as $b
	| select(($a | length) > 0 and ($b | length) > 0)
	| [$runs[].pair] | unique
	| map(. as $p | at($p; "base") as $x | at($p; "change") as $y | select($x != null and $y != null)
		| if $m.better == "higher" then $y > $x else $y < $x end) as $wins
	| [$m.name, ($a | median), (($a | quantile(0.75)) - ($a | quantile(0.25))), ($b | median),
		"\($wins | map(select(.)) | length)/\($wins | length)"] | @tsv' "$record" |
	awk -F'\t' '{ printf "%-22s %14.4f %12.4f %14.4f %8s\n", $1, $2, $3, $4, $5 }'

# set_of SIDE prints SIDE's runs as a results file that -compare reads.
set_of() {
	jq --arg side "$1" '{claim: null, workloads: (reduce (.runs[] | select(.side == $side)) as $r ({};
		.[$r.workload].attempted += $r.result.attempted
		| .[$r.workload].failed += $r.result.failed
		| reduce ($r.result.metrics | to_entries[]) as $e (.; .[$r.workload].end_to_end[$e.key] += [$e.value.value])))}' "$record"
}
missing=$(jq -r --slurpfile rec "$record" '.workloads[].name as $w
	| select(([$rec[0].runs[] | select(.workload == $w) | .side] | unique | length) < 2) | $w' "$spec")
echo
if [ -n "$missing" ]; then
	echo "benchmark -compare: waiting for $(echo $missing) on both sides"
else
	set_of base >"$tmp/base.json"
	set_of change >"$tmp/change.json"
	echo "benchmark -compare baseline change, over every run in $(basename "$record"):"
	"$tmp/change/bench" -compare "$tmp/base.json" "$tmp/change.json" || echo "verdict: worse on at least one metric"
fi
