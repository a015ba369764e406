#!/usr/bin/env bash
# Builds rsd and the benchmark from this checkout, then runs one benchmark
# workload. Run it from the repository root:
#
#   bash rsdbench/run.sh --workload warm-memo --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under the build directory ($CARGO_TARGET_DIR
# when set, .bench_build otherwise), including the Go build cache.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp"
# The go command's cache, temporary files, module path and configuration
# (including its telemetry counters) all live under the build directory.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root/rsdbench"
go build -o "$out/bin/rsd" regsat/cmd/rsd >&2
go build -o "$out/bin/rsdbench" . >&2
cd "$root"
exec "$out/bin/rsdbench" -rsd "$out/bin/rsd" -work "$out/work" "$@"
