#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; arguments pass
# through. Run from the repository root:
#
#   bash perfbench/run.sh --workload table6-scale --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and every temporary file (the traced
# run's CPU profiles among them) go to .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
