#!/bin/sh
# Builds the benchmark from source and runs it, from the root of a
# checkout of the repository:
#
#   sh perfbench/run.sh --workload table2 --seed 1 --seconds 15 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout:
# the Go build cache, the binary and the traced runs' outputs.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
