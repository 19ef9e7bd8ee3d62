#!/usr/bin/env bash
# The entry point BENCHMARK.json names. It builds ./bench from the sources of
# the checkout it sits in and runs it with the caller's arguments. The build
# output, the Go build cache and the compiler's temporary files all stay in
# the checkout's build directory, nothing is downloaded, and a checkout
# without the repository's go.mod fails here, before anything is printed.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/gotmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/graphsurge-bench" ./bench
exec "$build/graphsurge-bench" "$@"
