#!/usr/bin/env bash
# Builds the benchmark from this checkout, then runs it with the arguments
# given. Run it from the repository root:
#
#   bash perfbench/run.sh --workload compile-suite --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build: the Go
# build cache, the binary, and the span files of traced runs.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an objinline checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -out "$out/perfbench" "$@"
