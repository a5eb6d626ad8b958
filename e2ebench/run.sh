#!/usr/bin/env bash
# Builds the end-to-end campaign benchmark from this checkout and runs it.
# Run it from the repository root; the arguments go to the benchmark:
#
#   bash e2ebench/run.sh --workload grid-http --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache and configuration, the binary, the
# coordinator's WAL state and the span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/go-config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod" XDG_CONFIG_HOME="$out/go-config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The benchmark measures the production settings: no fault points armed.
unset ROWFUSE_FAULTPOINTS

go -C "$root/e2ebench" build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" -dir "$out/e2ebench-run" "$@"
