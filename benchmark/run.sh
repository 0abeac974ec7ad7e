#!/usr/bin/env bash
# Builds lcperf from source into .bench_build/ and runs it there with
# whatever arguments were given. The Go build cache and temp files are
# kept under .bench_build/ too, so nothing is written outside the
# checkout; lcperf builds cmd/lcserve the same way when a workload needs
# it. Fails (without a result line) where the repo's sources are absent.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
go build -C benchmark -o "$out/lcperf" .
exec "$out/lcperf" "$@"
