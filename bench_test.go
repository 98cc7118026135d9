package calsys

// One benchmark per experiment row of DESIGN.md §3 (E1-E9), measuring the
// performance claims behind the paper's design: foreach/selection
// throughput, generate/caloperate, catalog-mediated evaluation (Figure 1),
// the §3.3 scripts, factorization (Figures 2-3), window inference (§3.4),
// and DBCRON scheduling (Figure 4). Run with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"math/rand"
	"testing"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/interval"
	"calsys/internal/core/matcache"
	"calsys/internal/core/periodic"
	"calsys/internal/core/plan"
	"calsys/internal/multical"
	"calsys/internal/rules"
	"calsys/internal/store"
)

func benchEnv(b *testing.B, epoch Civil) (*plan.Env, *caldb.Manager) {
	b.Helper()
	mgr, err := caldb.New(store.NewDB(), chronology.MustNew(epoch))
	if err != nil {
		b.Fatal(err)
	}
	return mgr.Env(), mgr
}

func benchExpr(b *testing.B, src string) callang.Expr {
	b.Helper()
	e, err := callang.ParseExpr(src)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// --- E1: foreach and selection throughput (§3.1) ------------------------

func BenchmarkE1Foreach(b *testing.B) {
	ch := chronology.MustNew(DefaultEpoch)
	for _, years := range []int{1, 10, 50} {
		days := int64(years) * 365
		weeks, err := calendar.GenerateFull(ch, Week, Day, 1, days)
		if err != nil {
			b.Fatal(err)
		}
		months, err := calendar.GenerateFull(ch, Month, Day, 1, days)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("strict/years=%d", years), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := calendar.Foreach(weeks, Overlaps, true, months); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("relaxed/years=%d", years), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := calendar.Foreach(weeks, Overlaps, false, months); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE1Selection(b *testing.B) {
	ch := chronology.MustNew(DefaultEpoch)
	days, err := calendar.GenerateFull(ch, Day, Day, 1, 3650)
	if err != nil {
		b.Fatal(err)
	}
	weeks, err := calendar.GenerateFull(ch, Week, Day, 1, 3650)
	if err != nil {
		b.Fatal(err)
	}
	order2, err := calendar.Foreach(days, During, true, weeks)
	if err != nil {
		b.Fatal(err)
	}
	for _, sel := range []Selection{SelectIndex(2), SelectLast(), SelectList(1, 3, 5), SelectRange(2, 4)} {
		b.Run(sel.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := calendar.Select(sel, order2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E2: generate and caloperate (§3.2) ----------------------------------

func BenchmarkE2Generate(b *testing.B) {
	ch := chronology.MustNew(DefaultEpoch)
	for _, g := range []Granularity{Week, Month, Year} {
		for _, years := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("%v/years=%d", g, years), func(b *testing.B) {
				hi := Tick(years) * 365
				for i := 0; i < b.N; i++ {
					if _, err := calendar.GenerateFull(ch, g, Day, 1, hi); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkE2Caloperate(b *testing.B) {
	ch := chronology.MustNew(DefaultEpoch)
	days, err := calendar.GenerateFull(ch, Day, Day, 1, 36500)
	if err != nil {
		b.Fatal(err)
	}
	for _, counts := range [][]int{{7}, {30, 31}, {90, 91, 92, 92}} {
		b.Run(fmt.Sprintf("counts=%v", counts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := calendar.Caloperate(days, counts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3: catalog-mediated evaluation (Figure 1) ---------------------------

func BenchmarkE3TuesdaysThroughCatalog(b *testing.B) {
	env, mgr := benchEnv(b, DefaultEpoch)
	ls := caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}
	if err := mgr.DefineDerived("Tuesdays", "[2]/DAYS:during:WEEKS", ls, caldb.GranAuto); err != nil {
		b.Fatal(err)
	}
	e := benchExpr(b, "Tuesdays")
	from, to := MustDate(1993, 1, 1), MustDate(1993, 12, 31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Evaluate(env, e, from, to); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: the EMP-DAYS script (§3.3) ---------------------------------------

func BenchmarkE4EmpDaysScript(b *testing.B) {
	env, mgr := benchEnv(b, MustDate(1993, 1, 1))
	ls := caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}
	hol, _ := calendar.FromPoints(Day, []Tick{31, 90})
	if err := mgr.DefineStored("HOLIDAYS", hol, ls); err != nil {
		b.Fatal(err)
	}
	var bus []Tick
	for d := Tick(1); d <= 150; d++ {
		if d != 31 && d != 89 && d != 90 {
			bus = append(bus, d)
		}
	}
	busCal, _ := calendar.FromPoints(Day, bus)
	if err := mgr.DefineStored("AM_BUS_DAYS", busCal, ls); err != nil {
		b.Fatal(err)
	}
	script, err := callang.ParseScript(`{LDOM = [n]/DAYS:during:MONTHS;
		LDOM_HOL = LDOM:intersects:HOLIDAYS;
		LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;
		return (LDOM - LDOM_HOL + LAST_BUS_DAY);}`)
	if err != nil {
		b.Fatal(err)
	}
	from, to := MustDate(1993, 1, 1), MustDate(1993, 4, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.RunScript(env, script, from, to); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6/E7: factorized vs initial plans (Figures 2-3) ----------------------

func benchFactorization(b *testing.B, exprSrc string) {
	env, mgr := benchEnv(b, DefaultEpoch)
	ls := caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}
	defs := map[string]string{
		"Mondays":     "[1]/DAYS:during:WEEKS",
		"Januarys":    "[1]/MONTHS:during:YEARS",
		"Third_Weeks": "[3]/WEEKS:overlaps:MONTHS",
	}
	for name, src := range defs {
		if err := mgr.DefineDerived(name, src, ls, caldb.GranAuto); err != nil {
			b.Fatal(err)
		}
	}
	e := benchExpr(b, exprSrc)
	from, to := MustDate(1987, 1, 1), MustDate(1994, 12, 31)
	b.Run("factorized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Evaluate(env, e, from, to); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("initial", func(b *testing.B) {
		envOff := *env
		envOff.DisableFactorization = true
		for i := 0; i < b.N; i++ {
			if _, err := plan.Evaluate(&envOff, e, from, to); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE6Fig2MondaysInJanuary(b *testing.B) {
	benchFactorization(b, "Mondays:during:Januarys:during:1993/YEARS")
}

func BenchmarkE7Fig3ThirdWeekInJanuary(b *testing.B) {
	benchFactorization(b, "Third_Weeks:during:Januarys:during:1993/YEARS")
}

// --- E8: window inference on vs off (§3.4) ---------------------------------

func BenchmarkE8WindowInference(b *testing.B) {
	env, mgr := benchEnv(b, DefaultEpoch)
	ls := caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}
	if err := mgr.DefineDerived("Mondays", "[1]/DAYS:during:WEEKS", ls, caldb.GranAuto); err != nil {
		b.Fatal(err)
	}
	if err := mgr.DefineDerived("Januarys", "[1]/MONTHS:during:YEARS", ls, caldb.GranAuto); err != nil {
		b.Fatal(err)
	}
	e := benchExpr(b, "Mondays:during:Januarys:during:1993/YEARS")
	for _, years := range []int{1, 8, 64} {
		from := MustDate(1993, 1, 1)
		to := MustDate(1993+years-1, 12, 31)
		b.Run(fmt.Sprintf("windowed/baseYears=%d", years), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.Evaluate(env, e, from, to); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("unwindowed/baseYears=%d", years), func(b *testing.B) {
			envOff := *env
			envOff.DisableWindowInference = true
			for i := 0; i < b.N; i++ {
				if _, err := plan.Evaluate(&envOff, e, from, to); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: DBCRON scheduling sweep (Figure 4) --------------------------------

func BenchmarkE9DBCronSweep(b *testing.B) {
	for _, nRules := range []int{1, 10, 100} {
		for _, probeDays := range []int64{1, 7} {
			b.Run(fmt.Sprintf("rules=%d/T=%dd", nRules, probeDays), func(b *testing.B) {
				mgr, err := caldb.New(store.NewDB(), chronology.MustNew(MustDate(1993, 1, 1)))
				if err != nil {
					b.Fatal(err)
				}
				eng, err := rules.NewEngine(mgr)
				if err != nil {
					b.Fatal(err)
				}
				start := int64(0)
				noop := rules.FuncAction{Name: "noop",
					Fn: func(*store.Txn, *store.Event, int64) error { return nil }}
				for i := 0; i < nRules; i++ {
					expr := fmt.Sprintf("[%d]/DAYS:during:WEEKS", i%5+1)
					if err := eng.DefineTemporalRule(fmt.Sprintf("r%d", i), expr, noop, start); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				// Each iteration simulates 30 virtual days of probing and firing.
				now := start
				cron, err := rules.NewDBCron(eng, probeDays*SecondsPerDay, now)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					now += 30 * SecondsPerDay
					if _, err := cron.AdvanceTo(now); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(cron.Stats().Fired)/float64(b.N), "firings/30d")
			})
		}
	}
}

// --- substrate micro-benchmarks --------------------------------------------

func BenchmarkBTreeInsert(b *testing.B) {
	bt := store.NewBTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bt.Insert(store.NewInt(int64(i)), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexedLookupVsScan(b *testing.B) {
	db := store.NewDB()
	schema, _ := store.NewSchema(store.Column{Name: "k", Type: store.TInt}, store.Column{Name: "v", Type: store.TText})
	if err := db.CreateTable("t", schema); err != nil {
		b.Fatal(err)
	}
	if err := db.RunTxn(func(tx *store.Txn) error {
		for i := 0; i < 10000; i++ {
			if _, err := tx.Append("t", store.Row{store.NewInt(int64(i)), store.NewText("x")}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	tab, _ := db.Table("t")
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tab.LookupEq("k", store.NewInt(int64(i%10000))); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := db.CreateIndex("t", "k"); err != nil {
		b.Fatal(err)
	}
	b.Run("btree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tab.LookupEq("k", store.NewInt(int64(i%10000))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkIntervalSetOps(b *testing.B) {
	mk := func(n int, stride int64) interval.Set {
		ivs := make([]interval.Interval, n)
		for i := range ivs {
			lo := chronology.TickFromOffset(int64(i) * stride)
			ivs[i] = interval.Interval{Lo: lo, Hi: lo + stride/2}
		}
		return interval.NewSet(ivs...)
	}
	a, c := mk(1000, 10), mk(1000, 14)
	b.Run("union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Union(c)
		}
	})
	b.Run("intersect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Intersect(c)
		}
	})
	b.Run("diff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Diff(c)
		}
	})
}

func BenchmarkParseAndFactorize(b *testing.B) {
	src := "([1]/(DAYS:during:WEEKS)):during:(([1]/(MONTHS:during:YEARS)):during:(1993/YEARS))"
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := callang.ParseExpr(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	e := benchExpr(b, src)
	b.Run("factorize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			callang.Factorize(e, callang.KindMap{})
		}
	})
}

func BenchmarkQueryWithCalendarOnClause(b *testing.B) {
	sys := MustOpen()
	if _, err := sys.Exec(`create readings (day date, level float)`); err != nil {
		b.Fatal(err)
	}
	d := MustDate(1993, 1, 1)
	for i := 0; i < 365; i++ {
		stmt := fmt.Sprintf(`append readings (day = "%s", level = %d.0)`, d, i)
		if _, err := sys.Exec(stmt); err != nil {
			b.Fatal(err)
		}
		d = d.AddDays(1)
	}
	if err := sys.DefineCalendar("Tuesdays", "[2]/DAYS:during:WEEKS", GranAuto); err != nil {
		b.Fatal(err)
	}
	b.Run("onTuesdays", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.ExecOne(`retrieve (readings.level) on Tuesdays`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fullScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.ExecOne(`retrieve (readings.level)`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: the paper's shared-calendar marking (common-subexpression
// sharing plus the per-run generation cache) on vs off.
func BenchmarkSharingAblation(b *testing.B) {
	env, mgr := benchEnv(b, DefaultEpoch)
	_ = mgr
	e := benchExpr(b, "([1]/DAYS:during:WEEKS) + ([2]/DAYS:during:WEEKS) + ([3]/DAYS:during:WEEKS)")
	from, to := MustDate(1993, 1, 1), MustDate(1994, 12, 31)
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Evaluate(env, e, from, to); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unshared", func(b *testing.B) {
		envOff := *env
		envOff.DisableSharing = true
		for i := 0; i < b.N; i++ {
			if _, err := plan.Evaluate(&envOff, e, from, to); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The process-wide materialization cache: a cold evaluation (fresh cache
// every iteration) pays full generation cost; a warm one is served from the
// shared cache. The gap is what a catalog of long-lived sessions — DBCRON,
// time series, interactive queries — saves on every repeated evaluation.
func BenchmarkCacheColdVsWarm(b *testing.B) {
	_, mgr := benchEnv(b, DefaultEpoch)
	const src = "(DAYS:during:WEEKS) + (DAYS:during:MONTHS)"
	from, to := MustDate(1980, 1, 1), MustDate(2019, 12, 31)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env := mgr.Env()
			env.Mat = matcache.New(matcache.DefaultBudget)
			if _, err := mgr.EvalExprEnv(env, src, from, to); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		env := mgr.Env()
		env.Mat = matcache.New(matcache.DefaultBudget)
		if _, err := mgr.EvalExprEnv(env, src, from, to); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mgr.EvalExprEnv(env, src, from, to); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// §5 baseline: the paper's algebra vs hand-coded MultiCal-style event/span
// iteration for "the third Friday of every month of 1993". The algebra
// carries optimizer overhead; the baseline's cost is the code a user must
// write and maintain instead of one expression.
func BenchmarkMultiCalBaselineThirdFridays(b *testing.B) {
	env, _ := benchEnv(b, DefaultEpoch)
	e := benchExpr(b, "[3]/([5]/DAYS:during:WEEKS):overlaps:MONTHS")
	from, to := MustDate(1993, 1, 1), MustDate(1993, 12, 31)
	b.Run("algebra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Evaluate(env, e, from, to); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multical", func(b *testing.B) {
		ch := env.Chron
		g := multical.Gregorian{Chron: ch}
		for i := 0; i < b.N; i++ {
			var out []Civil
			cursor, err := g.FromFields(multical.FieldSet{"year": 1993, "month": 1, "day": 1})
			if err != nil {
				b.Fatal(err)
			}
			for m := 0; m < 12; m++ {
				fridays := 0
				ev := cursor
				for {
					day := ch.CivilOf(ev.At)
					if day.Weekday() == Friday {
						fridays++
						if fridays == 3 {
							out = append(out, day)
							break
						}
					}
					ev = g.AddSpan(ev, multical.SpanDay)
				}
				cursor = g.AddSpan(cursor, multical.SpanMonth)
			}
			if len(out) != 12 {
				b.Fatal("wrong result")
			}
		}
	})
}

// --- periodic compression (pattern-backed generation) -----------------------

// Cold generation walks the chronology for every element of the window; warm
// is what an environment with a cache does per generate op: fetch the pair's
// all-time pattern and expand the window from it, two O(1) index computations
// plus O(output) arithmetic. build is the one-time cost of that pattern — for
// MONTHS in DAYS a walk of the 400-year Gregorian cycle — which is why a
// cacheless environment, with nowhere to keep it, generates directly instead.
func BenchmarkPeriodicGenerateColdVsWarm(b *testing.B) {
	ch := chronology.MustNew(DefaultEpoch)
	win := interval.Interval{Lo: 1, Hi: 3650} // ten years of day ticks
	for _, g := range []Granularity{Day, Week, Month} {
		b.Run(fmt.Sprintf("cold/%v", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := calendar.GenerateFull(ch, g, Day, win.Lo, win.Hi); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("build/%v", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := periodic.ForBasicPair(ch, g, Day); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("warm/%v", g), func(b *testing.B) {
			cache := matcache.New(0)
			k := matcache.Key{Scope: "bench", ID: "G|" + g.String(), Gran: Day}
			pat, err := periodic.ForBasicPair(ch, g, Day)
			if err != nil {
				b.Fatal(err)
			}
			cache.PutPattern(k, pat)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, ok := cache.GetPattern(k)
				if !ok {
					b.Fatal("pattern entry missed")
				}
				if calendar.ExpandPattern(Day, p, win).IsEmpty() {
					b.Fatal("empty expansion")
				}
			}
		})
	}
}

// Every foreach listop over disjoint sorted operands takes the linear sweep;
// the same op over an argument with overlapping elements falls back to the
// generic per-element path. allocs/op is the tell: the sweep allocates
// O(result), the generic path scans candidates per argument element.
func BenchmarkForeachSweepVsGeneric(b *testing.B) {
	ch := chronology.MustNew(DefaultEpoch)
	weeks, err := calendar.GenerateFull(ch, Week, Day, 1, 36500)
	if err != nil {
		b.Fatal(err)
	}
	months, err := calendar.GenerateFull(ch, Month, Day, 1, 36500)
	if err != nil {
		b.Fatal(err)
	}
	// Widening every month by a week makes neighbors overlap, defeating the
	// sweep's precondition while keeping comparable cardinalities.
	wide := append([]interval.Interval(nil), months.Intervals()...)
	for i := range wide {
		wide[i].Hi += 7
	}
	overlapping, err := calendar.FromIntervals(Day, wide)
	if err != nil {
		b.Fatal(err)
	}
	for _, op := range []ListOp{Overlaps, During, Meets, Before, BeforeEquals} {
		b.Run(fmt.Sprintf("sweep/%v", op), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := calendar.Foreach(weeks, op, true, months); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("generic/%v", op), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := calendar.Foreach(weeks, op, true, overlapping); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The endpoint-index sweep kernels over ten years of DAYS/WEEKS at day ticks
// — the paper's standard workload shape. foreach runs During strict (the
// most common grouping), the set ops run DAYS-vs-WEEKS both ways (union is a
// straight output-writing merge of the two slabs). The sub-benchmarks are
// CI-gated on both ns/op and allocs/op (see cmd/benchjson -gate); the
// linear-merge kernels they replaced are retired (EXPERIMENTS.md "Retired
// arms") and the name is kept so the gated baseline rows carry over.
func BenchmarkEndpointSweepVsLinear(b *testing.B) {
	ch := chronology.MustNew(DefaultEpoch)
	days, err := calendar.GenerateFull(ch, Day, Day, 1, 3650)
	if err != nil {
		b.Fatal(err)
	}
	weeks, err := calendar.GenerateFull(ch, Week, Day, 1, 3650)
	if err != nil {
		b.Fatal(err)
	}
	setop := func(f func(a, b *calendar.Calendar) (*calendar.Calendar, error)) func() error {
		return func() error {
			if _, err := f(days, weeks); err != nil {
				return err
			}
			_, err := f(weeks, days)
			return err
		}
	}
	for _, k := range []struct {
		name string
		run  func() error
	}{
		{"endpoint/foreach", func() error { _, err := calendar.Foreach(days, During, true, weeks); return err }},
		{"endpoint/diff", setop(calendar.Diff)},
		{"endpoint/intersect", setop(calendar.Intersect)},
		{"endpoint/union", setop(calendar.Union)},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := k.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- next-instant kernel (DBCRON scheduling at scale) ----------------------

// BenchmarkNextAfter measures one next-trigger query through the plan
// Scheduler: the kernel path (pattern arithmetic / probe cache) against the
// seed windowed path (evaluate the full 730-day lookahead and scan). The
// kernel/windowed ratio is the speedup that lets DBCRON carry ~10^6 rules.
// The kernel sub-benchmarks are CI-gated (see cmd/benchjson -gate).
func BenchmarkNextAfter(b *testing.B) {
	env, _ := benchEnv(b, DefaultEpoch)
	ch := env.Chron
	start := ch.EpochSecondsOf(MustDate(1993, 1, 1))
	for _, tc := range []struct{ name, src string }{
		{"basic", "DAYS"},
		{"weekly", "[2]/DAYS:during:WEEKS"},
		{"monthly", "[n]/DAYS:during:MONTHS"},
	} {
		prepped, gran, err := plan.Prepare(env, benchExpr(b, tc.src), nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []string{"kernel", "windowed"} {
			b.Run(tc.name+"/"+mode, func(b *testing.B) {
				s := plan.NewScheduler(env, prepped, gran)
				s.Configure(0, mode == "windowed")
				at := start
				// Warm outside the timer: the kernel's first query probes.
				if _, _, err := s.NextAfter(at); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					next, ok, err := s.NextAfter(at)
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						at = start
						continue
					}
					at = next
				}
			})
		}
	}
}

// BenchmarkNextAfterSymbolicAblation isolates the symbolic pattern
// calculus on a composite expression (every day except Mondays) no basic
// fast path covers, measuring a fresh rule's first scheduling decision —
// the cost DBCRON pays per arriving rule. `symbolic` lowers the whole
// expression to a closed-form pattern at scheduler construction and
// answers by span arithmetic with zero window evaluations; `materialized`
// sets Env.DisableSymbolic and pays the probe path, which must evaluate a
// lookahead window before its cache can answer anything. (Steady-state
// queries converge: the probe cache also reduces to arithmetic once
// warmed. Compile time is exactly where the calculus wins.) The symbolic
// sub-benchmark is CI-gated (see cmd/benchjson -gate).
func BenchmarkNextAfterSymbolicAblation(b *testing.B) {
	env, _ := benchEnv(b, DefaultEpoch)
	ablated := *env
	ablated.DisableSymbolic = true
	start := env.Chron.EpochSecondsOf(MustDate(1993, 1, 1))
	prepped, gran, err := plan.Prepare(env, benchExpr(b, "(DAYS:during:WEEKS) - ([1]/DAYS:during:WEEKS)"), nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		env  *plan.Env
	}{
		{"symbolic", env},
		{"materialized", &ablated},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := plan.NewScheduler(mode.env, prepped, gran)
				if _, ok, err := s.NextAfter(start); err != nil || !ok {
					b.Fatalf("NextAfter: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// The prepared-expression table (caldb.Prepared): what every request and
// firing reads in place of parsing, vetting and lowering its source again.
// A hit is one map lookup and must not allocate; a miss is the full first
// use of a source — parse, calvet's symbolic analysis, inline + factorise —
// for three recurrence shapes whose analysis costs span two orders of
// magnitude.
var preparedShapes = []struct{ name, src string }{
	{"weekly", "[1,5]/(DAYS:during:WEEKS)"},
	{"monthly", "[3]/(([5]/(DAYS:during:WEEKS)):during:MONTHS)"},
	{"yearly", "[4]/(DAYS:during:([7]/(MONTHS:during:YEARS)))"},
}

var preparedSink *caldb.Prepared

func BenchmarkPreparedHit(b *testing.B) {
	_, mgr := benchEnv(b, DefaultEpoch)
	src := preparedShapes[1].src
	mgr.Prepared("", src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preparedSink = mgr.Prepared("", src)
	}
}

func BenchmarkPreparedMiss(b *testing.B) {
	for _, shape := range preparedShapes {
		b.Run(shape.name, func(b *testing.B) {
			_, mgr := benchEnv(b, DefaultEpoch)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh name makes a fresh entry of the same source.
				p := mgr.Prepared(fmt.Sprintf("c%d", i), shape.src)
				if p.Diags().HasErrors() {
					b.Fatal(p.Diags())
				}
				if _, err := p.Lowered(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- first evaluations and opaque derivations (serve_wide's operations) -----

// benchRuns numbers the systems benchHolidaySystem builds: the testing
// package calls a benchmark once per -count and per b.N round, and a catalog
// scope of its own keeps a round from hitting the last one's entries in the
// shared cache.
var benchRuns int

// benchHolidaySystem is a system with 500 seeded holidays 1990–2039 and
// bizdays derived from them by the given script.
func benchHolidaySystem(b *testing.B, bizdays string) *System {
	benchRuns++
	sys := MustOpen(WithCatalogScope(fmt.Sprintf("bench/holidays/%d", benchRuns)))
	rng := rand.New(rand.NewSource(18))
	var ticks []Tick
	for y := 1990; y <= 2039; y++ {
		for n := 0; n < 10; n++ {
			ticks = append(ticks, sys.DayTickOf(MustDate(y, 1+rng.Intn(12), 1+rng.Intn(28))))
		}
	}
	hol, err := CalendarFromPoints(Day, ticks)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.DefineStoredCalendar("holidays", hol); err != nil {
		b.Fatal(err)
	}
	if err := sys.DefineCalendar("bizdays", bizdays, Day); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkExpandCold is the cold path's row in the ledger: a first
// evaluation, through System.EvalCalendar, of the four serve_wide shapes over
// a 35-year window that starts a day later every iteration (always after the
// epoch), so that nothing but the basic calendars' patterns is ever resident.
// bizdays is the workload's straight-line script, hence one expression with
// each shape: what is timed is compile + execute of the whole expression.
// All four rows are CI-gated on ns/op and allocs/op.
func BenchmarkExpandCold(b *testing.B) {
	sys := benchHolidaySystem(b, "{wd = [1,2,3,4,5]/DAYS:during:WEEKS; return (wd - holidays);}")
	start := sys.DayTickOf(MustDate(1990, 1, 1))
	for _, shape := range []struct{ name, src string }{
		{"eom", "[n]/bizdays:during:MONTHS"},
		{"qtr", "[n]/bizdays:during:caloperate(MONTHS, 3)"},
		{"intersects", "bizdays:intersects:([1]/WEEKS:overlaps:MONTHS)"},
		{"bizdays", "bizdays"},
	} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				from := start + Tick(i%5000)
				if _, err := sys.EvalCalendar(shape.src, sys.CivilOfDayTick(from), sys.CivilOfDayTick(from+35*365)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDerivedMaterialize keeps the opaque path measured: bizdays here
// branches (the shape of the paper's EMP-DAYS and option scripts), so it is
// run by the script runner and materialised as a D| entry. cold — bizdays
// over a 35-year window that differs every iteration (a D| miss each time:
// foreach, selection, difference); warm — a selection of bizdays grouped by
// month, with a predicate that differs every iteration, over one resident D|
// window (foreach + selection only). Both rows are CI-gated on ns/op and
// allocs/op.
func BenchmarkDerivedMaterialize(b *testing.B) {
	sys := benchHolidaySystem(b, "{wd = [1,2,3,4,5]/DAYS:during:WEEKS; if (holidays) return (wd - holidays); return (wd);}")
	start := sys.DayTickOf(MustDate(1990, 1, 1))
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			from := start + Tick(i%5000)
			if _, err := sys.EvalCalendar("bizdays", sys.CivilOfDayTick(from), sys.CivilOfDayTick(from+35*365)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		from, to := MustDate(1990, 1, 1), MustDate(2024, 12, 31)
		if _, err := sys.EvalCalendar("bizdays", from, to); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := fmt.Sprintf("[%d,%d,%d,%d]/bizdays:during:MONTHS", 1+i%23, 1+i/23%23, 1+i/529%23, 1+i/12167%23)
			if _, err := sys.EvalCalendar(src, from, to); err != nil {
				b.Fatal(err)
			}
		}
	})
}
