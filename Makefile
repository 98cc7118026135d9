# Mirrors .github/workflows/ci.yml: `make check` runs exactly what CI runs.
# staticcheck and govulncheck are skipped with a notice when the binaries
# are not installed (offline build environments); CI installs them.

GO ?= go

.PHONY: check build vet vet-calsys fmt-check test race chaos chaos-fleet bench-smoke bench \
	bench-json bench-compare bench-gate bench-cache profile fuzz-smoke staticcheck govulncheck \
	serve-smoke calvet-corpus calbench-check reach reach-check loc loc-check

check: build loc-check vet vet-calsys fmt-check test race chaos chaos-fleet bench-smoke fuzz-smoke \
	serve-smoke calvet-corpus calbench-check reach-check staticcheck govulncheck

build:
	$(GO) build ./...

# Non-test Go lines outside the benchmark module: the ROADMAP's tracked size
# figure (history in EXPERIMENTS.md "Retired arms"). PKG= narrows it to one
# directory tree: make loc PKG=internal/core/calendar.
PKG ?= .
loc:
	@find $(PKG) -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l

# The figure is a ratchet: a PR that grows the tree past the budget raises
# LOC_BUDGET in the same diff, where a reviewer sees it; a PR that shrinks it
# lowers the budget to its own figure.
# PR 21 raised it by 38 (24 690 -> 24 728; 263 lines in, 225 out): the three
# mirrors of the inlining eligibility rule, Script.SingleExpr and
# plan/symbolic.go went; the substitution of a straight-line script's
# temporaries, the one eligibility function with its lifespan rule, the
# factorizer's selection-subject guard and /expand's Content-Length came.
# PR 22 raised it by 67 (24 728 -> 24 795; 97 lines in, 30 out): the civil
# month cursor, Chronology.DaySpan and /expand's element template came; the
# per-date seconds round trip in the encoder and parseISO's Split went.
# PR 23 lowered it by 49 (24 795 -> 24 746; 215 lines in, 264 out): subs,
# treeOf, foreachIntervalRec, convertRec, foreachSelfJoin, sameBacking, the
# foreachSweep dispatcher and Generate's copy of GenerateFull's validation and
# unit loop went; the levels above the extents (FromSubs packing them, String
# walking them, Select dropping the innermost), foreachFilter and the set
# kernels' cursor restart came.
# PR 24 lowered it by 538 (24 746 -> 24 208; 165 lines in, 703 out): the
# next-instant ladder's third rung, multical's Interval/Span arithmetic/
# ParseEvent/fiscal write side, the Allen classifier, faultinject's panic,
# delay, probabilistic and disarm modes, FormatTick, CaloperateUntil,
# AnalyzeExpr and a score of accessors no non-test code called went (make
# reach classes 3 and 4); the layering pass of vet-calsys came.
# PR 25 lowered it by 90 (24 208 -> 24 118; 155 lines in, 245 out):
# DBCron.AdoptState, the recoverySrc closures, ackedHigh, recoverLocked,
# Journal.HighWater, Engine.temporalNames and the insertion sort went; the
# shared minimal-form writer, journal.Create, MergeStates' renumbering and the
# stranded-rule fix in execute came.
# One firing loop lowered it by 293 (24 118 -> 23 825; 270 lines in, 563
# out): dbcrond's three run loops became one loop over shard.Worker (591 ->
# 429 lines); DBCron.Run, NextWakeup, the kick channel, poke, SystemClock,
# the wheel's next bound, FullStats, both MaxCatchUp knobs and
# Journal.Pending/AckedThrough went; the worker's retry of stranded leases
# and WorkerStats.Recovered came.
LOC_BUDGET = 23825

loc-check:
	@n=$$($(MAKE) -s loc); \
	if [ "$$n" -gt $(LOC_BUDGET) ]; then \
		echo "loc-check: $$n non-test Go lines exceed LOC_BUDGET = $(LOC_BUDGET)" >&2; \
		exit 1; \
	fi; \
	echo "loc-check: $$n non-test Go lines (budget $(LOC_BUDGET))"

vet:
	$(GO) vet ./...

# Project-specific vet passes (tickzero: the no-zero tick convention;
# errcode: structured error-envelope codes in HTTP handlers; layering: no
# service package imports the reproduction, no internal package but
# internal/serve imports the root façade).
vet-calsys:
	$(GO) run ./cmd/vet-calsys ./...

# Golden gate on the calvet -fleet symbolic diagnostics: the clean corpus
# must stay silent, the adversarial corpus must report exactly its planted
# CV010/CV012/CV013 findings and equivalence class — no more, no fewer.
calvet-corpus:
	@$(GO) run ./cmd/calvet -fleet examples/calvet-corpus/clean.rules \
		examples/calvet-corpus/adversarial.rules > calvet-corpus.out || \
		{ echo "calvet-corpus: calvet -fleet failed" >&2; cat calvet-corpus.out; rm -f calvet-corpus.out; exit 1; }
	@if ! diff -u examples/calvet-corpus/expected.txt calvet-corpus.out; then \
		echo "calvet-corpus: diagnostics drifted from the golden (see examples/calvet-corpus/README.md)" >&2; \
		rm -f calvet-corpus.out; exit 1; \
	fi
	@rm -f calvet-corpus.out
	@echo "calvet-corpus: diagnostics match the golden"

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/store/... ./internal/rules/... ./internal/core/plan/... \
		./internal/core/matcache/... ./internal/core/calendar/... ./internal/core/interval/... \
		./internal/caldb/... ./internal/serve/...

# Crash-recovery fault injection: the seeded kill-and-recover suites, run
# three times under the race detector. Set CHAOS_ARTIFACTS to a directory to
# keep the journals of failed runs (CI uploads them).
chaos:
	$(GO) test -race -count=3 ./internal/rules/ ./internal/rules/journal/ \
		./internal/faultinject/ ./internal/store/

# Sharded-fleet chaos: the multi-worker kill/steal matrix — every run
# SIGKILLs a shard owner and arms one seeded crash site across the lease,
# handoff, probe, fire, ack and journal layers, then proves fleet-wide
# exactly-once under FireAll (at-most-once under SkipMissed) — plus the
# dbcrond demos' crash-and-recover and kill-and-steal runs, whose restart and
# steals both recover through the file system. Three repetitions under the
# race detector. Set CHAOS_ARTIFACTS to keep the per-shard journals of failed
# runs (CI uploads them).
chaos-fleet:
	$(GO) test -race -count=3 ./internal/rules/shard/ ./cmd/dbcrond/

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem ./... | tee bench-smoke.txt

# End-to-end smoke of the serving layer: build calserved, boot on an ephemeral
# port, walk the API with curl + jq assertions, read a bulk expand back whole,
# drain on SIGTERM, then a 2 s calbench serve_churn run for load. Artifacts
# land in smoke-out/ (set SMOKE_OUT to move them).
serve-smoke:
	./scripts/serve_smoke.sh

# The repo's benchmark (BENCHMARK.json, bench/) is its own module, so
# `go build ./... && go test ./...` never compile it. Vet and test it, then
# run the smallest workload for two seconds through the same entry point the
# benchmark driver uses; only the exit status matters (non-zero on a build
# failure or any response that disagrees with the oracle).
calbench-check:
	cd bench && $(GO) vet . && $(GO) test .
	./bench/run.sh -workload serve_hot -seed 1 -seconds 2 -trace 0 > /dev/null

# Which witness executes each non-test function of the module: calbench (every
# workload for 3 s against coverage builds), else the reproduction (experiments,
# examples, calvet -fleet, the dbcrond demos, the serve-smoke walk, the root
# package's tests and benchmarks), else only `go test ./...`, else nothing —
# four classes with per-package counts, about two minutes. PKG= narrows the
# report to one directory tree: make reach PKG=internal/rules. reach-check is
# the same run failing when class 4 (nothing executes it) holds a function no
# pattern in scripts/reach.keep gives a reason for.
reach:
	./scripts/reach.sh -pkg $(PKG)

reach-check:
	./scripts/reach.sh -check > reach.txt || { sed -n '/^class 4/,$$p' reach.txt >&2; exit 1; }
	@sed -n '1,5p' reach.txt

# Short fuzz runs: the calendar-language front end (parser + calvet), the
# sweep kernels against the naive foreach/set-op oracles, the streaming
# /expand encoder against encoding/json, generated straight-line scripts as
# one expression against the script runner, and the civil month cursor against
# AppendCivil. `go test -fuzz` takes one target per invocation, hence five
# commands.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseAndVet -fuzztime=15s -run '^$$' ./internal/core/callang/
	$(GO) test -fuzz=FuzzSweepVsNaive -fuzztime=15s -run '^$$' ./internal/core/calendar/
	$(GO) test -fuzz=FuzzExpandEncode -fuzztime=15s -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzStraightLineScripts -fuzztime=15s -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzCivilCursor -fuzztime=15s -run '^$$' ./internal/chronology/

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

# Full benchmark run (not part of check; takes a while).
bench:
	$(GO) test -bench=. -benchmem ./...

# Full benchmark sweep rendered as JSON (ns/op, B/op, allocs/op plus custom
# metrics) — the committed ledger, BENCH_baseline.json, is produced by this
# target.
bench-json:
	$(GO) test -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson -o BENCH_baseline.json

# Warn-only drift check of a fresh smoke run against the committed baseline,
# then the hard gate (what the CI bench-smoke job runs).
bench-compare:
	$(GO) test -bench=. -benchtime=1x -benchmem ./... | \
		$(GO) run ./cmd/benchjson -compare BENCH_baseline.json -threshold 3 -
	$(MAKE) bench-gate

# Hard benchmark gate: the scheduling kernel (including the symbolic-calculus
# ablation arm), the warm materialized-calendar cache, the sweep join, the
# slab-and-extents kernels (sweep, selection, an opaque derived calendar's
# cold and warm materialization), the cold path (a first evaluation of each
# serve_wide shape), the prepared-expression table (hit and miss) and
# warm expands through the HTTP handler (a 12-interval one, a 5.8 k-interval
# one, a 420-interval one whose dates are a month apart, and the date
# formatter that defines the encoder's output) are run at a real benchtime and must
# stay within 1.25x of BENCH_baseline.json ns/op and allocs/op, or the build
# fails.
# A full second of measurement per benchmark averages out scheduler spikes,
# and -count=3 makes the gate best-of-three (benchjson keeps the fastest run
# per benchmark), so a regression must reproduce in every repetition — one
# noisy-neighbor episode cannot fail the build. The second command selects
# only the sweep arms (the generic fallback arms take ~50ms/op and are not
# gated). The two runs share one compare.
bench-gate:
	( $(GO) test -bench 'NextAfter|CacheColdVsWarm|EndpointSweepVsLinear|Prepared|E1Selection|DerivedMaterialize|ExpandCold' \
		-benchtime=1s -count=3 -benchmem . && \
	  $(GO) test -run '^$$' -bench 'HandlerExpand|AppendCivil' -benchtime=1s -count=3 -benchmem ./internal/serve && \
	  $(GO) test -bench 'ForeachSweepVsGeneric/sweep' -benchtime=1s -count=3 -benchmem . && \
	  $(GO) test -run '^$$' -bench 'TimingWheelVsHeap' -benchtime=1s -count=3 -benchmem ./internal/rules && \
	  $(GO) test -run '^$$' -bench 'CacheParallelGet|CacheStampede' -benchtime=1s -count=3 -benchmem \
		./internal/core/matcache ) | \
		$(GO) run ./cmd/benchjson -compare BENCH_baseline.json \
			-gate 'BenchmarkNextAfter|BenchmarkNextAfterSymbolicAblation/symbolic|BenchmarkCacheColdVsWarm/warm|BenchmarkForeachSweepVsGeneric/sweep|BenchmarkEndpointSweepVsLinear/endpoint|BenchmarkE1Selection|BenchmarkDerivedMaterialize|BenchmarkExpandCold|BenchmarkTimingWheelVsHeap/wheel|BenchmarkCacheParallelGet/sharded|BenchmarkCacheStampede|BenchmarkPreparedHit|BenchmarkPreparedMiss|BenchmarkHandlerExpandWarm|BenchmarkHandlerExpandBulk|BenchmarkHandlerExpandWide|BenchmarkAppendCivil' \
			-gate-threshold 1.25 -gate-allocs-threshold 1.25 -

# Parallel cache benchmarks across GOMAXPROCS=1,4,8 (the sweep ROADMAP 1(d)
# wants from a multicore runner): the sharded read path, plus the 64-way
# stampede (which fails outright if singleflight ever runs more than one
# generation per (key, window)). The text report keeps the per-cpu lines;
# BENCH_cache.json keeps the fastest instance of each benchmark (benchjson
# folds the -N suffixes).
bench-cache:
	$(GO) test -run '^$$' -bench 'CacheParallelGet|CacheStampede' \
		-benchtime=1s -count=3 -cpu=1,4,8 -benchmem ./internal/core/matcache | \
		tee bench-cache.txt
	$(GO) run ./cmd/benchjson -o BENCH_cache.json bench-cache.txt

# CPU + heap profile of one probe-day over the 100k-rule fleet; inspect with
# `go tool pprof cpu.prof` (or mem.prof). The live daemon exposes the same
# profiles over HTTP via `dbcrond -pprof localhost:6060`.
profile:
	$(GO) test -run '^$$' -bench BenchmarkProbe100kRules -benchtime=10x \
		-cpuprofile cpu.prof -memprofile mem.prof ./internal/rules
	@echo "wrote cpu.prof and mem.prof; try: go tool pprof cpu.prof"
