#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments, from the checkout root:
#
#   bash e2ebench/run.sh --workload corpus-91 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, staged inputs and Chrome traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOTELEMETRY=off GOENV=off XDG_CONFIG_HOME="$out/config"
(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
