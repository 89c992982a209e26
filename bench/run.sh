#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash bench/run.sh --workload scaling --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay under .bench_build/
# in the checkout. The build fails, and so does this script, when the
# simulator's sources are not beside bench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/jmbbench" .)
exec "$out/jmbbench" "$@"
