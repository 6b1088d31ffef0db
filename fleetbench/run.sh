#!/usr/bin/env bash
# Builds fleetbench, fusecu-serve and fusecu-route from this checkout's
# source and runs the benchmark with the given arguments, e.g.
#
#   bash fleetbench/run.sh --workload search-hot --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the checkout. Everything it builds or caches goes
# under .bench_build/ there; the last line of standard output is the result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/fleetbench"
mkdir -p "$out/bin" "$out/tmp"

# Keep the Go toolchain's caches and temporary files inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)

cd "$root/fleetbench"
go build -o "$out/bin/fleetbench" .
go build -o "$out/bin/fusecu-serve" fusecu/cmd/fusecu-serve
go build -o "$out/bin/fusecu-route" fusecu/cmd/fusecu-route
cd "$root"
exec "$out/bin/fleetbench" -bin "$out/bin" -out "$out" -commit "$commit" "$@"
