#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload single-gpu-plan --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays inside the checkout:
# the Go build cache and the binary under .bench_build/, reports and
# traces under .bench_out/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: the karma module (go.mod, internal/) is missing from $root" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

# The commit the report's provenance names.
if ! PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	# Not a git checkout: identify the sources by content.
	PERFBENCH_COMMIT="tree-sha256:$(cd "$root" && find go.mod internal cmd perfbench -type f \( -name '*.go' -o -name 'go.mod' \) -print0 |
		LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT

# Set-up time counts from here: the launch of the measuring process.
PERFBENCH_LAUNCH_NS=$(date +%s%N)
export PERFBENCH_LAUNCH_NS
exec "$build/perfbench" "$@"
