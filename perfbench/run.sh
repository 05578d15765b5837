#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload randomized --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and
# the binary stay under .bench_build in the current directory, and git
# is not asked about directories above it.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GIT_CEILING_DIRECTORIES="$(dirname "$root")"
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --scratch "$build" "$@"
