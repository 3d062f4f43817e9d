#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The Go
# build cache, the binary, the data directory and the traces all stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/dcbenchmark" .
exec "$build/dcbenchmark" -dir "$build/data" -out "$build/out" "$@"
