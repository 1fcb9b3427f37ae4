#!/usr/bin/env bash
# Builds the co-browsing benchmark from the checkout's source and runs it.
# Run from the root of a checkout:
#
#   bash cobench/run.sh --workload edit-fanout --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
bench="$root/cobench"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

# The go command keeps its telemetry counters under the user's config
# directory; point that into the checkout too.
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$bench" && go build -o "$out/cobench" .)
exec "$out/cobench" -out "$out" "$@"
