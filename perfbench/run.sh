#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in, then runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 25 --trace 0
#
# The binary and every cache the Go toolchain writes stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, and the
# toolchain is kept off the network: the benchmark needs only the standard
# library and this repository.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$(pwd)/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
