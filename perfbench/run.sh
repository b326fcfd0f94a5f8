#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The binary, the Go build cache, the Go
# tool's temporary and config files and the span logs of traced runs all go
# to .bench_build/, so nothing is written outside the checkout. The build
# fails (non-zero exit, no result line) when the library it measures is
# not next to it; the benchmark needs no module downloads.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
