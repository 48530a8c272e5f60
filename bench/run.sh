#!/usr/bin/env bash
# Builds the benchmark inside the checkout (.bench_build/, including the go
# build cache, so nothing outside the checkout is written) and runs it from
# the checkout root with the caller's arguments.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$out/geostat-bench" . >&2
exec "$out/geostat-bench" "$@"
