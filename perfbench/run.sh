#!/usr/bin/env bash
# Builds the layer-ladder benchmark from source and runs one workload.
# Run from the repository root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload knn-static --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and span files stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a surfknn checkout" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
