#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the Go
# toolchain and the benchmark write under .bench_build/ in the current
# directory. Run it from the repository root:
#
#   bash bench/run.sh --workload squash-heavy --seed 1 --seconds 40 --trace 0
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
