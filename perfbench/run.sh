#!/usr/bin/env bash
# Builds the benchmark and cmd/node from source into .bench_build/ (the Go
# build cache included, so nothing is written outside the checkout) and runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload wc-inproc --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(pwd)
if [[ ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/dfnode" repro/cmd/node) >&2
exec "$out/perfbench" -node "$out/dfnode" "$@"
