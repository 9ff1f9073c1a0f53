#!/usr/bin/env bash
# Builds yardstickd and the benchmark from the checkout it is run in,
# then runs one benchmark workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload report-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off GOENV=off

go build -o "$out/bin/yardstickd" ./cmd/yardstickd
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)

exec "$out/bin/e2ebench" -yardstickd "$out/bin/yardstickd" -out "$out/spans" "$@"
