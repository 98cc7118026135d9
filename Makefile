# The one copy of what CI runs: each job of .github/workflows/ci.yml calls
# these targets, and `make check` runs them all. staticcheck and govulncheck
# are skipped with a notice when the binaries are not installed (offline
# build environments); CI installs them.

GO ?= go

# Recipes run under bash with pipefail, as CI's steps do: a `go test` that
# fails fails its target even when piped into tee or benchjson.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

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
# Invalidation by dependency raised it by 150 (23 825 -> 23 975; 464 lines
# in, 314 out): per-entry references, dependency lists with shape and values
# stamps, drop tombstones, the one (name, src) Prepared table with its
# per-plan scheduler slots, matcache's one-version slots and RecomputeAll's
# plan-group check came; the per-generation table, the generation-keyed
# VolatileOf memo with calvet's fast path for it, CatalogGeneration and
# Engine.schedulerFor went.
# Content keys raised it by 38 (23 975 -> 24 013): matcache's replacement
# path went; per-entry digests and content-keyed versions came.
# The checkpoint codec raised it by 79 (24 013 -> 24 092): the snapshot and
# journal encoders append into reused buffers (appendValue, appendEscaped,
# the record appenders), Load fills a table's rows at once (Txn.load) and
# cuts row fields out of the line, index keys compare without copies; the
# fmt encoder (encodeValue, escape) moved to persist_test.go as the oracle.
# Lowering once raised it by 52 (24 092 -> 24 144): the process-wide memo of
# basic-only lowerings with its stats and lock-free hit path, the scheduler's
# compile-once helper and Pattern.String's appends came; Canonical's
# quadratic rotation scan (now the oracle in algebra_test.go), candLess,
# maxRotationSpans and matcache's G| kind (GetPattern, PutPattern, pattern
# entries, the Patterns and Generated stats) went.
# One group walk lowered it by 124 (24 144 -> 24 020; 188 lines in, 312
# out): ForeachSelectEnd, the groupRun type, diffCycle, normalizeSpans and
# periodic's offset-space copies of the Within/Without cut loops went; one
# grouping whose groups cover all five listops, a pick asked once per group
# size, and SetDiff/SetIntersect calling interval.Set's kernels on offsets
# shifted into ticks came.
# One cache, one lock lowered it by 177 (24 020 -> 23 843; 127 lines in, 304
# out): matcache's 16 lock stripes with their FNV hash and sub-budgets, the
# access clock behind deferred promotion, the second flight mutex,
# ShardStats and caldb's Manager.RunScript went; the per-kind census kept on
# insert and evict came.
# Exceptions in the executor raised it by 348 (23 843 -> 24 191; 596 lines
# in, 248 out), past the +250 set for the change: the executor's pattern
# window (a pattern's elements over a window less stored points) with its
# group walk,
# the plan executor's lazy registers and the compiler's lowering of
# basic-only sub-trees came, with a struct CSE key and an allocation-free
# LookupGranularity; matcache's per-key bucket scan and the executor's
# per-run generation cache went.
# Two scheduler rungs lowered it by 155 (24 191 -> 24 036): the next-instant
# scheduler's probe cache (its anchor and slack analysis, its lookup and fill,
# six fields) and the plan environment's symbolic switch went; nothing came.
# A firing writes what changed raised it by 53 (24 036 -> 24 089; 96 lines
# in, 43 out): each index's column position with Replace's changed-key check,
# the temporal rule's remembered RULE-TIME row and its name check, the
# journal's buffered S record (bufferLine) with its 64 KiB buffer, and the
# minimal-form writer's sync flag came; the per-index column lookups, the
# per-event listener copy and Replace's delete-all, insert-all went.
# One script semantics kept it at 24 089 (149 lines in, 149 out): the plan
# layer's script-variable op (OpVar), the compiler's temporaries, the
# temporaries parameter of CompileExpr, exec, execVal, execOp and Inline, the
# inliner's shadowing and the runner's per-temporary values went; the shared
# substitution (callang.Subst, its bounded node count), the runner's `today`
# binding and plan.Unused (the parameter Prepare, Compile and Exec now ignore,
# which bench/ still passes) came.
# A firing makes one write raised it by 60 (24 089 -> 24 149): the journal's
# own record buffer with its ack flag, its commit-point write, Flush and
# Stats, Replay's newline-terminated records (and its truncation of a file
# whose first line is empty), DBCron's flush on return,
# DB.Table's stack-buffer lowercasing and the Txn's two inline undo records
# came; the bufio writer with its reused line buffer, Sync's own flush and
# fsync, the seeks after Open and Compact (O_APPEND instead) and
# Replace's clone of the row it unlinks went.
# /expand answers from its pattern raised it by 120 (24 149 -> 24 269; 173
# lines in, 53 out): the prepared entry's pattern facet and its counter,
# plan.WindowExact (the shapes whose lowering is what the plan materializes
# over any window), the encoder's expandSource with its pattern walk and
# binary-search count, Manager.EvalPrepared, Pattern.Fill,
# Calendar.SortedDisjoint and Replay's seq checks came; Pattern.Elements
# (folded into Fill) and the handler's second prepared lookup went.
# One pattern gate lowered it by 34 (24 269 -> 24 235; 188 lines in, 222
# out): the scheduler's lowering, its exact and dormant fields, its windowed
# ablation switch, the engine's next-kernel knob and calserved's plan share
# (its second calsys.Open, Stats, ShareStats and the server's share field)
# went; Prepared.NextAfter, plan.HorizonWindow, Scheduler.PlanAt, the
# compiler's groupWin and symbolic's nested-group refusal came.
# Stored calendars join the closed form raised it by 608 (24 235 -> 24 843;
# 741 lines in, 133 out): periodic.Patched (a shared base plus removed and
# added point lists) with its rank, Walk, NextAfter and the Cursor, locate
# and member walk it shares with Window, PatchSet and SelectPatched,
# symbolic.EvalPatched with the twin lowering and the memo's content-keyed
# entries, the prepared entry's re-keyed stored pattern and its snapshot of
# stored values, the scheduler's horizon clip and Pattern's cached point
# flag came; Window.skipped, the window's step-over loop and Pattern.Card
# went.
# An /expand body costs its bytes raised it by 40 (24 843 -> 24 883; 62
# lines in, 22 out): the month cursor's step (its year and month fields, the
# stepping loop and the prefix put together in a register) and the
# encoder's body length declared from the count (the size field and the
# body's three constant tails) came; the cursor's AppendCivil round trip for
# its prefix went.
# No shared scheduler lowered it by 121 (24 883 -> 24 762; 136 lines in, 257
# out): the catalog's per-plan scheduler table (schedSlot, internScheduler,
# Schedulers, Prepared.Scheduler), Scheduler.PlanAt with the scheduler's lock
# and plan cache, the engine's plan-group tokens and PlanGroupStats, and the
# executor's selectPattern went; Prepared.Values, Manager.WindowEvals and the
# engine's planText came.
# One periodic-minus-finite value lowered it by 10 (24 762 -> 24 752; 241
# lines in, 251 out): the executor's pattern window (First/Last less an
# exception list, with Overlapping, Within, Holds, Expand and its group walk),
# the cursor's not-an-element case and last index, and the executor's
# point-list check went; the registers' Patched plus tick window,
# Patched.PerGroup with the group members it shares with SelectPatched,
# PatchSet's case of a list less points, the cover test of a point pattern,
# the one point-list predicate and point-window cut, and the before-grouping
# window fix came.
# The element lattice raised it by 59 (24 752 -> 24 811; 154 lines in, 95
# out): the /expand encoder's pooled buffer and its per-element copy of the
# element text went; the pooled element lattice with its restore, the walk
# the lattice and append loops share, CivilCursor.PutInMonth (the inlined
# in-month case of Put) and the plan compiler's presized op list came.
LOC_BUDGET = 24811

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
		./internal/core/callang/symbolic/... ./internal/core/matcache/... ./internal/core/calendar/... ./internal/core/interval/... \
		./internal/caldb/... ./internal/serve/...
	$(GO) test -race -count=10 -run 'TestContentKeyABARace|TestNextAfterHorizonPerCall|TestStaleFlightNotShared|TestMemoConcurrentLowerings|TestExpandLatticeConcurrent' \
		./internal/caldb/ ./internal/core/matcache/ ./internal/core/callang/symbolic/ ./internal/serve/

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
# /expand encoder against encoding/json, the /expand pattern path against
# the plan path, /next against the window definition, generated
# straight-line scripts as one expression against the script runner, the
# civil month cursor against AppendCivil, the snapshot loader (never panics;
# what it accepts saves to a fixed point), the journal replay, and the plan
# executor's lazy registers against the same plan run eagerly. `go test
# -fuzz` takes one target per invocation, hence ten commands; the first
# three run 20 s, the rest 15 s.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseAndVet -fuzztime=20s -run '^$$' ./internal/core/callang/
	$(GO) test -fuzz=FuzzSweepVsNaive -fuzztime=20s -run '^$$' ./internal/core/calendar/
	$(GO) test -fuzz=FuzzExpandEncode -fuzztime=20s -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzExpandPattern -fuzztime=15s -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzNextPattern -fuzztime=15s -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzStraightLineScripts -fuzztime=15s -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzCivilCursor -fuzztime=15s -run '^$$' ./internal/chronology/
	$(GO) test -fuzz=FuzzSnapshotLoad -fuzztime=15s -run '^$$' ./internal/store/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=15s -run '^$$' ./internal/rules/journal/
	$(GO) test -fuzz=FuzzGroupWalk -fuzztime=15s -run '^$$' ./internal/core/plan/

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
# serve_wide shape), the prepared-expression table (hit and miss), a cold
# symbolic lowering (the memo emptied every iteration) and warm expands through the HTTP handler (a 12-interval one, a 5.8 k-interval
# one, a 420-interval one whose dates are a month apart, and the date
# formatter that defines the encoder's output), the checkpoint codecs (a fleet
# snapshot's save and load, one firing's journal records) and the durable
# firing path (a journalled 1 000-rule fleet, per firing) are run at a real
# benchtime and must stay within 1.25x of BENCH_baseline.json ns/op and
# allocs/op, or the build fails.
# A full second of measurement per benchmark averages out scheduler spikes,
# and -count=3 makes the gate best-of-three (benchjson keeps the fastest run
# per benchmark), so a regression must reproduce in every repetition — one
# noisy-neighbor episode cannot fail the build. The second command selects
# only the sweep arms (the generic fallback arms take ~50ms/op and are not
# gated). The two runs share one compare.
bench-gate:
	( $(GO) test -bench 'NextAfter|CacheColdVsWarm|EndpointSweepVsLinear|Prepared|E1Selection|DerivedMaterialize|ExpandCold|SnapshotSave|SnapshotLoad' \
		-benchtime=1s -count=3 -benchmem . && \
	  $(GO) test -run '^$$' -bench 'HandlerExpand|AppendCivil' -benchtime=1s -count=3 -benchmem ./internal/serve && \
	  $(GO) test -bench 'ForeachSweepVsGeneric/sweep' -benchtime=1s -count=3 -benchmem . && \
	  $(GO) test -run '^$$' -bench 'TimingWheelVsHeap|DurableFiring' -benchtime=1s -count=3 -benchmem ./internal/rules && \
	  $(GO) test -run '^$$' -bench 'JournalRecord' -benchtime=1s -count=3 -benchmem ./internal/rules/journal && \
	  $(GO) test -run '^$$' -bench 'LowerCold' -benchtime=1s -count=3 -benchmem ./internal/core/callang/symbolic && \
	  $(GO) test -run '^$$' -bench 'CacheParallelGet|CacheStampede' -benchtime=1s -count=3 -benchmem \
		./internal/core/matcache ) | \
		$(GO) run ./cmd/benchjson -compare BENCH_baseline.json \
			-gate 'BenchmarkNextAfter|BenchmarkNextAfterSymbolicAblation/symbolic|BenchmarkCacheColdVsWarm/warm|BenchmarkForeachSweepVsGeneric/sweep|BenchmarkEndpointSweepVsLinear/endpoint|BenchmarkE1Selection|BenchmarkDerivedMaterialize|BenchmarkExpandCold|BenchmarkTimingWheelVsHeap/wheel|BenchmarkDurableFiring|BenchmarkCacheParallelGet/sharded|BenchmarkCacheStampede|BenchmarkPreparedHit|BenchmarkPreparedMiss|BenchmarkLowerCold|BenchmarkHandlerExpandWarm|BenchmarkHandlerExpandBulk|BenchmarkHandlerExpandWide|BenchmarkAppendCivil|BenchmarkSnapshotSave|BenchmarkSnapshotLoad|BenchmarkJournalRecord' \
			-gate-threshold 1.25 -gate-allocs-threshold 1.25 -

# Parallel cache benchmarks across GOMAXPROCS=1,4,8: the record, not a gate,
# of how the one-lock read path scales on a multicore runner, plus the 64-way
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
