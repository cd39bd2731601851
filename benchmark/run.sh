#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the repository root. Everything the Go toolchain writes (build cache,
# module cache, its own settings) stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false"
(cd "$root/benchmark" && go build -o "$build/skysr-benchmark" .)
cd "$root"
exec "$build/skysr-benchmark" "$@"
