#!/usr/bin/env bash
# Builds the unlock-service benchmark from source and runs it from the
# repository root, passing every argument through:
#
#   bash bench/run.sh --workload mix-closed --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh -out results.json              # all four workloads
#
# The binary, the Go build cache and the daemons' state directories all
# stay under .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Offline, pinned toolchain; caches, temporary files and toolchain config
# inside the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

(cd "$root/bench" && go build -o "$out/wearbench" .)
cd "$root"
exec "$out/wearbench" "$@"
