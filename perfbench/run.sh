#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload large-run --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --print-corpus --seed 1   # the start of the serve-mix corpus
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binary, spans, CPU profiles) stays under .bench_build/ there.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
