#!/usr/bin/env bash
# Builds the benchmark, solarpredd and repro from source into
# .bench_build/ at the root of the checkout, then runs the benchmark:
#
#   bash perfbench/run.sh --workload forecast-hot --seed 1 --seconds 12 --trace 0
#
# Every Go cache, temporary file and artifact stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/bin/" . solarpred/cmd/solarpredd solarpred/cmd/repro) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
