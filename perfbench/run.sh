#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go caches
# included, so nothing is written outside the checkout) and runs it
# with the given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload refine --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
