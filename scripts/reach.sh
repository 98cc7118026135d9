#!/usr/bin/env bash
# Which functions does the benchmark's traffic never reach?
#
# Builds calserved and calbench with coverage counters over every calsys
# package into .bench_build/, runs each workload of BENCHMARK.json untraced
# for a few seconds against the instrumented server, and prints every function
# outside bench/ that no workload executed. A mechanism listed here is not
# measured by calbench: its traffic is unverified, whatever the unit tests do.
#
#   scripts/reach.sh [seconds-per-workload, default 3]
#
# calbench stops calserved with SIGTERM, so the server exits through main and
# flushes its counters. Everything written stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
seconds="${1:-3}"
build="$PWD/.bench_build"
cov="$build/cover"
rm -rf "$cov"
mkdir -p "$build/bin" "$cov"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -cover -coverpkg=calsys/... -o "$build/bin/calserved-cover" ./cmd/calserved
(cd bench && go build -cover -coverpkg=calsys/... -o "$build/bin/calbench-cover" .)

workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": "\([^"]*\)".*/\1/p' BENCHMARK.json)
for w in $workloads; do
	echo "reach: $w" >&2
	GOCOVERDIR="$cov" "$build/bin/calbench-cover" -calserved "$build/bin/calserved-cover" \
		-workload "$w" -seed 1 -seconds "$seconds" -trace 0 >/dev/null
done

echo "functions no workload reached (file:line function):"
go tool covdata func -i="$cov" |
	awk '$NF == "0.0%" && $1 !~ /^calsys\/bench\// { print $1, $2 }'
