#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash benchmark/run.sh --workload tree-steady --seed 7 --seconds 10 --trace 0
# The benchmark is a Go module of its own (benchmark/go.mod) that takes the
# repository in through a replace directive, so the root module neither
# builds nor tests it. Build products, the Go build cache and Go's scratch
# files all stay inside the checkout (.bench_build/), as do the benchmark's
# own outputs (benchmark/out/).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOWORK=off
go build -C "$root/benchmark" -o "$build/rebeca-benchmark" .
cd "$root"
exec "$build/rebeca-benchmark" "$@"
