#!/usr/bin/env bash
# Builds the QuMA benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload serve_mixed --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# run write stays under .bench_build/ in that directory: the Go build
# cache, the binary, journals and traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
