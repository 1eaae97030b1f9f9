#!/usr/bin/env bash
# Builds the bytes-to-blink benchmark from the source in this checkout
# and runs it with the given arguments, from the checkout root:
#
#   bash bench/run.sh --workload fleet-paced --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache included) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

go -C "$(dirname "$0")" build -o "$out/bytes2blink" .
exec "$out/bytes2blink" "$@"
