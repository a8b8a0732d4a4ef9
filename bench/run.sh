#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root; the build cache and binary stay under
# .bench_build in the working directory.
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOTMPDIR"
go -C bench build -o "$build/paratick-benchmark" .
exec "$build/paratick-benchmark" "$@"
