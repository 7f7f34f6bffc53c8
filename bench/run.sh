#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build and
# runs it with the given arguments. Everything Go writes — build cache,
# temp files, the binary — stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
export MILRET_BENCH_DIR="$here" MILRET_BENCH_BUILD="$build"
(cd "$here" && go build -o "$build/milret-bench" .)
exec "$build/milret-bench" "$@"
