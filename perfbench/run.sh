#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run
# it from the root of the repository:
#
#   bash perfbench/run.sh --workload rack-year --seed 1 --seconds 24 --trace 0
#
# Everything the build writes (the Go build cache, the binary, the traced
# run's spans) goes under .bench_build/ in the current directory, or under
# $CARGO_TARGET_DIR when that is set. The benchmark is its own Go module,
# so the repository's `go test ./...` does not build it; its unit tests
# run with `go -C perfbench test ./...`.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
out="$build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
