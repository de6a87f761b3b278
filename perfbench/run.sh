#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload unimodal --seed 1 --seconds 50 --trace 0
#
# Build outputs, the Go build cache and the compiler's temporary files stay
# under .bench_build/ in the checkout. Without the program's sources next
# to perfbench/ the build fails and the script exits non-zero without a
# result.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOMODCACHE="$GOPATH/pkg/mod"
export GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
mkdir -p "$GOTMPDIR"
go -C perfbench build -o "$root/.bench_build/perfbench" .
exec "$root/.bench_build/perfbench" "$@"
