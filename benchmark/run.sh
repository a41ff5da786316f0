#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash benchmark/run.sh --workload bullet-steady --seed 7 --seconds 12 --trace 0
#
# Everything the build leaves behind (binary, Go build cache, temporary
# files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [[ ! -f "$root/go.mod" ]]; then
	echo "benchmark/run.sh: $root holds no go.mod: the simulator's source is not here, nothing to build" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# With a fresh config directory the go command would start a detached
# telemetry child that outlives it; mode "off" keeps it from doing so.
echo off >"$build/config/go/telemetry/mode"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

cd "$root"
go build -o "$build/bullet-bench" ./benchmark
exec "$build/bullet-bench" "$@"
