#!/usr/bin/env bash
# Builds the esgrid benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload tcp-bulk --seed 1 --seconds 20 --trace 0
#
# Run from the root of an esgrid checkout. The binary, the Go build cache
# and traced-run output all live under .bench_build/ in that checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off

# Build output goes to stderr so the result stays the last stdout line.
(cd "$here" && go build -o "$out/esgperf" .) 1>&2
cd "$root"
exec "$out/esgperf" "$@"
