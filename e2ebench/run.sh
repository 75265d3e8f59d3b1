#!/usr/bin/env bash
# Builds and runs the end-to-end serving benchmark. Run it from the root of
# a repository checkout; every argument is passed to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload warm-read-100k --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, scratch inputs and results.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C e2ebench build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
