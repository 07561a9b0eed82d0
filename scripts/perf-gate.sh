#!/usr/bin/env bash
# The perfbench regression gate: measures two commits on every workload
# of BENCHMARK.json and fails when the second is worse than the first
# beyond the benchmark's bounds. Run from a clone of the repository:
#
#   scripts/perf-gate.sh <base-ref> <head-ref>
#
# Each commit is checked out into a temporary git worktree and measured
# by its own perfbench/run.sh at BENCHMARK.json's run_seconds, tracing
# off. Pair p runs seed p on both sides, and the side that runs first
# alternates from pair to pair, so drift on a shared machine falls on
# both. cmd/perf-verdict prints the per-metric table (median, quartiles,
# pairs head lost) and decides the exit status. A run that exits
# non-zero fails the gate at once.
set -euo pipefail

if [[ $# -ne 2 ]]; then
	echo "usage: scripts/perf-gate.sh <base-ref> <head-ref>" >&2
	exit 2
fi
cd "$(git rev-parse --show-toplevel)"
base=$(git rev-parse --verify "$1^{commit}")
head=$(git rev-parse --verify "$2^{commit}")
pairs=10
seconds=$(jq -er .run_seconds BENCHMARK.json)
mapfile -t workloads < <(jq -er '.workloads[].name' BENCHMARK.json)

tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/base" 2>/dev/null || true
	git worktree remove --force "$tmp/head" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/base" "$base"
git worktree add --quiet --detach "$tmp/head" "$head"
# Built before the runs, so a broken build fails in seconds.
go build -o "$tmp/perf-verdict" ./cmd/perf-verdict
echo "perf-gate: base $base, head $head; $pairs pairs of ${seconds}s runs per workload" >&2

run() { # <side> <workload> <pair>
	local log="$tmp/$1-$2-$3.log" out
	if ! out=$(cd "$tmp/$1" && bash perfbench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 2>"$log"); then
		echo "perf-gate: FAIL $2 pair $3 $1: perfbench exited non-zero" >&2
		tail -n 20 "$log" >&2
		exit 1
	fi
	echo "$2 $3 $1 ${out##*$'\n'}" >>"$tmp/results.txt"
}
for ((p = 1; p <= pairs; p++)); do
	for w in "${workloads[@]}"; do
		if ((p % 2)); then
			run base "$w" "$p" && run head "$w" "$p"
		else
			run head "$w" "$p" && run base "$w" "$p"
		fi
	done
done
"$tmp/perf-verdict" BENCHMARK.json "$tmp/results.txt"
