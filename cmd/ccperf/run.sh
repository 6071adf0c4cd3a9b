#!/usr/bin/env bash
# Builds ccperf from the source in this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/ccperf/run.sh --workload lb-noise --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every other file the toolchain
# writes stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout. The toolchain is never allowed to fetch anything: ccperf and
# the simulator use only the standard library.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd cmd/ccperf && go build -o "$out/ccperf" .)
exec "$out/ccperf" "$@"
