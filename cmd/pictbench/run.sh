#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): builds pictbench from the
# checkout's source and runs it with the driver's arguments. The build
# cache, temporary files, the binary, the databases and the trace files
# all stay under .bench_build in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/pager ]; then
	echo "pictbench: run from the root of a checkout of the repository" >&2
	exit 1
fi
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOFLAGS=-mod=vendor GOENV=off GOTOOLCHAIN=local
go build -buildvcs=false -o "$out/pictbench" ./cmd/pictbench
exec "$out/pictbench" -dir "$out/pictbench-data" "$@"
