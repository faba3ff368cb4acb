#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, e.g.
#
#   bash benchmark/run.sh --workload bcast-sync --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. The Go build cache, temporary files,
# the binary and span logs all stay under .bench_build/ in that checkout.
# Without the repository's module next to benchmark/ the build fails and the
# script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
(
  cd "$root/benchmark"
  GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
    go build -o "$out/atum-benchmark" .
)
cd "$root"
exec "$out/atum-benchmark" "$@"
