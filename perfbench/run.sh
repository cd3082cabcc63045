#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload tail-warm --seed 1 --seconds 25 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOTMPDIR"
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
