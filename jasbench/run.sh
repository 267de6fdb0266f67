#!/usr/bin/env bash
# Builds the benchmark and jasd from this checkout's sources, then runs the
# benchmark with the given arguments, e.g.
#
#   bash jasbench/run.sh --workload report --seed 1 --seconds 25 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/
# at the repository root.
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home" "$build/bin"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

# The benchmark is its own module; it reaches the repository's packages
# through the replace directive in its go.mod, so a directory without the
# repository's sources fails here.
(cd "$bench_dir" && go build -o "$build/bin/jasbench" .)
(cd "$root" && go build -o "$build/bin/jasd" ./cmd/jasd)

exec "$build/bin/jasbench" --root "$root" --jasd "$build/bin/jasd" "$@"
