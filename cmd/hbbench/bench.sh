#!/usr/bin/env bash
# Builds hbbench from this checkout and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash cmd/hbbench/bench.sh --workload sweep-b16 --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binaries,
# server directories, span files) stays under .bench_build/ in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench.sh: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd cmd/hbbench && go build -o "$out/hbbench" .)
exec "$out/hbbench" -root "$PWD" "$@"
