#!/usr/bin/env bash
# Builds the host-cost benchmark from this checkout's sources and runs it.
# Run from the repository root; every flag is passed through, e.g.
#   bash hostbench/run.sh --workload datapath --seed 1 --seconds 30 --trace 0
# Everything the build writes (Go build cache, toolchain config, binary)
# stays in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/hostbench" && go build -o "$out/hostbench" .)
exec "$out/hostbench" "$@"
