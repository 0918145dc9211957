#!/usr/bin/env bash
# Builds the repository benchmark from the checkout this script sits in
# and runs it from the checkout root, passing every argument through:
#
#   bash bench/run.sh --workload matrix-cold --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and all temporary files stay under
# .bench_build/ in the checkout, and the module proxy is off, so a run
# reads and writes nothing outside the checkout and never needs a network.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd bench && go build -o "$out/gembench" .)
exec "$out/gembench" "$@"
