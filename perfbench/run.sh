#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload road-query --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind goes to .bench_build/ there.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"

# Keep the Go toolchain's caches and settings inside the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
