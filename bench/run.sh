#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload point-hot -seed 1 -seconds 10 -trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays in .bench_build at the root; the first build fills the
# cache, later runs reuse it.
set -euo pipefail

root=$(pwd)
[[ -f "$root/bench/go.mod" ]] || { echo "run.sh: run from the repository root" >&2; exit 2; }
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
