#!/usr/bin/env bash
# Builds the mtexc benchmark from source and runs it, passing every
# argument through. Run it from the repository root, for example:
#
#   bash bench/run.sh -seed 1                       # all four workloads
#   bash bench/run.sh -workload cluster-l2 -trace 1 # one traced run
#
# The build cache, the binary and everything the benchmark writes stay
# in .bench_build/ under the repository root; the Go command's own
# configuration and telemetry files go there too, and it never reaches
# for the network.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -trimpath -buildvcs=false -o "$build/mtexcbench" ./mtexcbench
cd "$root"
exec "$build/mtexcbench" "$@"
