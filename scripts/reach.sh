#!/usr/bin/env bash
# Which witness executes each function of the module?
#
# Every non-test function of the root module (bench/ is its own module and is
# not listed) is printed under the FIRST of four witnesses that runs it:
#
#   1 calbench       every BENCHMARK.json workload against a coverage build of
#                    calserved + calbench: the service, measured
#   2 reproduction   cmd/experiments, the five examples/ mains, calvet -fleet
#                    over examples/calvet-corpus, the dbcrond demos the README
#                    shows (named, -crash-after then -recover, -rules,
#                    -workers -kill-after), scripts/serve_smoke.sh's curl walk,
#                    and the root package's tests and benchmarks (-benchtime=1x):
#                    the paper's goldens and E1-E11
#   3 go test only   `go test ./...`: pinned by a unit test, reached by no
#                    product
#   4 nothing        no binary, benchmark or test in the repository runs it
#
# A function in class 3 or 4 stays only under the keep rule of DESIGN.md §6;
# every class-4 survivor needs a pattern and a reason in scripts/reach.keep.
#
#   scripts/reach.sh [-check] [-pkg DIR] [seconds-per-workload, default 3]
#
# -pkg narrows the report to one directory tree (make reach PKG=internal/rules);
# -check exits non-zero when class 4 holds a function no reach.keep pattern
# covers (make reach-check). Needs jq and curl (serve_smoke.sh does too).
#
# The universe is the union of what the coverage builds instrument: every
# package is linked by a binary built here or by its own test. calbench stops
# calserved with SIGTERM, so the server exits through main and flushes its
# counters. Everything written stays inside the checkout, under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
check=0 pkg=. seconds=3
while [ $# -gt 0 ]; do
	case "$1" in
	-check) check=1 ;;
	-pkg) pkg="$2"; shift ;;
	*) seconds="$1" ;;
	esac
	shift
done
pkg="${pkg#./}" pkg="${pkg%/}"
build="$PWD/.bench_build"
cov="$build/cover"
bin="$build/bin/cover"
rm -rf "$cov" "$bin"
mkdir -p "$bin" "$cov/1" "$cov/2" "$cov/3" "$cov/tmp/shards"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
cover=(-cover -coverpkg=calsys/...)

go build "${cover[@]}" -o "$bin/" ./cmd/calserved ./cmd/experiments ./cmd/calvet ./cmd/dbcrond ./examples/...
(cd bench && go build "${cover[@]}" -o "$bin/calbench" .)

for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	echo "reach: calbench $w" >&2
	GOCOVERDIR="$cov/1" "$bin/calbench" -calserved "$bin/calserved" \
		-workload "$w" -seed 1 -seconds "$seconds" -trace 0 >/dev/null
done

echo "reach: reproduction" >&2
(
	export GOCOVERDIR="$cov/2"
	tmp="$cov/tmp"
	"$bin/experiments" >/dev/null
	for e in examples/*/main.go; do
		"$bin/$(basename "$(dirname "$e")")" >/dev/null
	done
	"$bin/calvet" -fleet examples/calvet-corpus/clean.rules examples/calvet-corpus/adversarial.rules >/dev/null
	"$bin/dbcrond" -q >/dev/null
	"$bin/dbcrond" -q -days 40 -journal-dir "$tmp/crash" -snapshot "$tmp/state.db" -crash-after 12 >/dev/null 2>&1 || true
	"$bin/dbcrond" -q -days 40 -journal-dir "$tmp/crash" -snapshot "$tmp/state.db" -recover >/dev/null
	"$bin/dbcrond" -rules 300 -distinct 50 -days 10 >/dev/null
	"$bin/dbcrond" -workers 3 -shards 8 -rules 300 -days 10 -kill-after 3 -journal-dir "$tmp/shards" >/dev/null
	# serve_smoke.sh builds its own calserved: GOFLAGS makes that a coverage
	# build too (and its closing calbench run, which class 1 already holds).
	GOFLAGS="${cover[*]}" SMOKE_OUT="$build/smoke-cover" scripts/serve_smoke.sh >/dev/null 2>&1
	go test "${cover[@]}" -bench . -benchtime=1x . -args -test.gocoverdir="$cov/2" >/dev/null
)

echo "reach: go test ./..." >&2
go test "${cover[@]}" ./... -args -test.gocoverdir="$cov/3" >/dev/null

# One line per function and witness, "<class> <file>:<line>: <function> <pct>",
# in file and line order.
for k in 1 2 3; do
	go tool covdata func -i="$cov/$k" | awk -v k=$k '$1 ~ /\.go:[0-9]+:$/ { print k, $1, $2, $3 }'
done | sort -s -k2,2V | awk -v pkg="$pkg" -v check=$check -v keepfile=scripts/reach.keep '
BEGIN {
	name[1] = "calbench"; name[2] = "reproduction"; name[3] = "go test only"; name[4] = "nothing"
	while ((getline line < keepfile) > 0) {
		if (line ~ /^#/ || line !~ /[^ \t]/) continue
		split(line, kv, /[ \t]+# /)
		pat[++npat] = kv[1]; why[npat] = kv[2]
	}
	prefix = "calsys/" (pkg == "." || pkg == "" ? "" : pkg "/")
}
$2 ~ /^calsys\/bench\// || index($2, prefix) != 1 { next }
{
	f = $2 " " $3
	if (!(f in class)) { class[f] = 4; order[++n] = f }
	if ($4 != "0.0%" && $1 < class[f]) class[f] = $1
}
END {
	for (i = 1; i <= n; i++) {
		f = order[i]; c = class[f]
		p = f; sub(/\/[^\/]*$/, "", p); sub(/^calsys\/?/, "", p); if (p == "") p = "."
		size[c]++; per[p, c]++
		if (!(p in seen)) { seen[p] = 1; pkgs[++m] = p }
		list[c] = list[c] "  " f
		if (c == 4) {
			key = f; sub(/:[0-9]+:/, "", key)
			for (j = 1; j <= npat && key !~ pat[j]; j++);
			if (j <= npat) used[j] = 1; else bad++
			list[c] = list[c] (j <= npat ? "   # keep: " why[j] : "   # NOT IN scripts/reach.keep")
		}
		list[c] = list[c] "\n"
	}
	printf "%d non-test functions under %s, by the first witness that executes them:\n", n, prefix
	for (c = 1; c <= 4; c++) printf "  class %d  %-13s %5d\n", c, name[c], size[c]
	printf "\n%-36s %8s %8s %8s %8s\n", "package", "calbench", "reprod.", "go test", "nothing"
	for (i = 1; i <= m; i++) { p = pkgs[i]; printf "%-36s %8d %8d %8d %8d\n", p, per[p, 1], per[p, 2], per[p, 3], per[p, 4] }
	for (c = 1; c <= 4; c++) printf "\nclass %d — %s (file:line: function):\n%s", c, name[c], list[c]
	for (j = 1; j <= npat; j++) if (!used[j] && pkg == ".") printf "note: scripts/reach.keep pattern matches nothing in class 4: %s\n", pat[j]
	if (bad) printf "\n%d function(s) in class 4 without a scripts/reach.keep reason\n", bad
	if (check && bad) exit 1
}'
