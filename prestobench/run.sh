#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash prestobench/run.sh --workload cold-scan --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and span dumps live under
# .bench_build/ in the current directory; nothing is written elsewhere.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off

(cd "$here" && go build -o "$out/prestobench" .)
cd "$root"
exec "$out/prestobench" "$@"
