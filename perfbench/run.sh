#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs one workload:
#
#   bash perfbench/run.sh --workload lease-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, scratch files and
# span files.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/run" "$@"
