#!/usr/bin/env bash
# Builds the association-path benchmark from source and runs it.
#
#   bash assocbench/run.sh --workload assoc-100k --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temporary journals, span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/assocbench" && go build -trimpath -o "$out/assocbench" .) >&2
exec "$out/assocbench" -out "$out" "$@"
