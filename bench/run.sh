#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash bench/run.sh --workload hit-replay --seed 1 --seconds 8 --trace 0
#   bash bench/run.sh                       # every workload, untraced then traced
#   bash bench/run.sh -compare old.json new.json
#
# The binary, Go's build cache and the counters the go command keeps about
# itself go to .bench_build/ at the root of the checkout, so a run reads and
# writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/go-cache" XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local
mkdir -p .bench_build
go build -C bench -o ../.bench_build/bench .
exec .bench_build/bench "$@"
