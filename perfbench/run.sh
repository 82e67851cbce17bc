#!/usr/bin/env bash
# Builds the benchmark program and the schedserve binary from this
# checkout's sources, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds or writes goes
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/schedserve" schedcomp/cmd/schedserve
cd "$root"
exec "$out/perfbench" -server "$out/schedserve" -out "$out" "$@"
