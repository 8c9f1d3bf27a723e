#!/usr/bin/env bash
# Builds fpgadbgd and the campaign benchmark from this checkout, then runs
# the benchmark against the freshly built daemon. Every build product and
# Go cache stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build) so nothing outside the checkout is written.
#
#   bash perfbench/run.sh --workload cold-bugs --seed 1 --seconds 12 --trace 0
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local CGO_ENABLED=0

# Turn Go telemetry off for this private config dir: in its default mode
# the go command forks a detached upload process that outlives the build.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/fpgadbgd" ./cmd/fpgadbgd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/fpgadbgd" -out "$out" "$@"
