#!/usr/bin/env bash
# Launcher of the benchmark: builds hexserver and the benchmark program
# from the checkout's own sources into .bench_build/ and runs the latter
# with the given flags. Everything the build and the run write — Go's
# build cache and temporary files included — stays inside .bench_build/,
# which .gitignore names. Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload lookup-mem --seed 1 --seconds 12 --trace 0
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/gotmp" "$out/gocache" "$out/config"

# Keep the toolchain inside the checkout: no downloads, no files under
# $HOME (build cache, telemetry counters).
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp XDG_CONFIG_HOME=$out/config
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# With telemetry in its default "local" mode the go command forks a
# detached sidecar that outlives it; the mode file is the only switch.
mkdir -p "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"

# The benchmark is a module of its own (benchmark/go.mod) that replaces
# the hexastore module with the checkout, so both builds start there.
go build -C "$root/benchmark" -o "$out/bin/hexserver" hexastore/cmd/hexserver
go build -C "$root/benchmark" -o "$out/bin/benchmark" .

exec "$out/bin/benchmark" "$@"
