#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds tsbench from source inside the
# checkout, before any clock starts, and hands it the driver's arguments.
# Everything go writes (build cache, binary) stays under .bench_build/ in
# the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/tsbench" .)
cd "$root"
exec "$build/tsbench" "$@"
