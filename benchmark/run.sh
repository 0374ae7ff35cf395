#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout, then run it with the arguments given. Everything the Go tool
# writes (build cache, temporary files, its per-user configuration) is
# pointed into .bench_build, so nothing outside the checkout is touched.
# Run from the root of the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: the program's source (go.mod, internal/) is not in $PWD" >&2
	exit 1
fi
build="$PWD/.bench_build"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/home/go"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
# The go command of a user with no telemetry mode on file starts a detached
# telemetry child that outlives it; with the mode off it starts none, so no
# process of this script is left behind.
mkdir -p "$build/tmp" "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/psbench" ./benchmark
exec "$build/psbench" "$@"
