#!/usr/bin/env bash
# Builds calserved and calbench from source into .bench_build/ at the root of
# the checkout, then runs calbench from there with the arguments given:
#
#   bench/run.sh -seed 1 [-runs N]            every workload, untraced and traced
#   bench/run.sh -workload serve_hot -seed 1 -seconds 10 -trace 0
#   bench/run.sh -compare A.json B.json
#
# Everything the build and the run write stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bin/calserved" ./cmd/calserved
(cd bench && go build -o "$build/bin/calbench" .)
exec "$build/bin/calbench" "$@"
