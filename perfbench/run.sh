#!/usr/bin/env bash
# Builds itspqd and the benchmark from this checkout's sources, then runs
# one workload. Run it from anywhere in the checkout:
#
#   bash perfbench/run.sh --workload crowd --seed 1 --seconds 15 --trace 0
#
# Build outputs, Go caches and the traced run's span files stay under
# .bench_build/perfbench in the checkout; the build never uses the
# network.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root" && go build -o "$out/itspqd" ./cmd/itspqd)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -daemon "$out/itspqd" -out "$out" "$@"
