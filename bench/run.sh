#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given. This is BENCHMARK.json's command; `run.sh compare A B`
# and `run.sh calibrate` work the same way.
#
# Everything the build leaves behind (Go's build cache included) stays in
# .bench_build/ under the checkout, and every file a run writes stays in
# .bench_scratch/ or is trace.json: the benchmark touches nothing outside
# the checkout it measures.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOWORK=off

# bench/ is a module of its own that imports the parent module through a
# replace directive, so this fails (as it must) where the parent is absent.
(cd "$here" && go build -o "$build/graphbench" .)

cd "$root"
exec "$build/graphbench" "$@"
