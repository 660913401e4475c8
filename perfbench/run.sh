#!/usr/bin/env bash
# Builds the campaign benchmark from the source tree around this
# directory and runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload paper-surrogate --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  Everything the build and the run
# write (Go build cache, binary, work directories, span files, result
# files) goes under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

# Keep the Go toolchain's caches and settings inside the checkout and
# never reach for the network: the module has no external dependencies.
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
