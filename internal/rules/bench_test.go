package rules

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/plan"
	"calsys/internal/rules/journal"
	"calsys/internal/store"
)

// BenchmarkNextTrigger measures one engine next-trigger computation per
// expression class (caldb.Prepared.NextAfter) against the window definition,
// a scheduler of the lowered expression asked directly, which every
// expression with no pattern takes. The ratio here is the per-firing recompute cost that
// dominates DBCRON at fleet scale.
func BenchmarkNextTrigger(b *testing.B) {
	noop := FuncAction{Name: "noop", Fn: func(*store.Txn, *store.Event, int64) error { return nil }}
	for _, tc := range []struct{ name, src string }{
		{"basic", "DAYS"},
		{"weekly", "[2]/DAYS:during:WEEKS"},
		{"monthly", "[n]/DAYS:during:MONTHS"},
		{"quarterly", "[n]/DAYS:during:caloperate(MONTHS, 3)"},
	} {
		for _, mode := range []string{"kernel", "windowed"} {
			b.Run(tc.name+"/"+mode, func(b *testing.B) {
				eng, cal := newEngine(b)
				ch := cal.Chron()
				start := ch.EpochSecondsOf(d(1993, 1, 1))
				if err := eng.DefineTemporalRule("r", tc.src, noop, start); err != nil {
					b.Fatal(err)
				}
				eng.mu.Lock()
				r := eng.temporal["r"]
				eng.mu.Unlock()
				nextOf := func(at int64) (int64, error) {
					n, _, err := eng.nextTrigger(r, at)
					return n, err
				}
				if mode == "windowed" {
					l, err := cal.Prepared("", tc.src).Lowered()
					if err != nil {
						b.Fatal(err)
					}
					s := plan.NewScheduler(cal.Env(), l.Expr, l.Gran)
					nextOf = func(at int64) (int64, error) {
						n, ok, err := s.NextAfter(at)
						if !ok {
							n = noTrigger
						}
						return n, err
					}
				}
				at := start
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					next, err := nextOf(at)
					if err != nil {
						b.Fatal(err)
					}
					if next >= noTrigger {
						at = start
						continue
					}
					at = next
				}
			})
		}
	}
}

// fleetExprs returns `distinct` calendar expressions for a synthetic rule
// fleet: mostly monthly day picks, plus weekly and week-of-month shapes.
func fleetExprs(distinct int) []string {
	exprs := make([]string, 0, distinct)
	for k := 1; len(exprs) < distinct && k <= 28; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d]/DAYS:during:MONTHS", k))
	}
	for k := 1; len(exprs) < distinct && k <= 7; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d]/DAYS:during:WEEKS", k))
	}
	for k := 1; len(exprs) < distinct && k <= 4; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d]/WEEKS:overlaps:MONTHS", k))
	}
	for k := 1; len(exprs) < distinct; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d,%d]/DAYS:during:MONTHS", k, k+14))
	}
	return exprs
}

// BenchmarkProbe100kRules drives one probe-day of DBCRON over a fleet of
// 100k temporal rules sharing 50 distinct expressions. Each iteration
// advances the daemon one virtual day: one RULE-TIME probe plus every firing
// due that day (~3.5k with this mix). probes is the catalog's count of
// window evaluations: every expression of the mix answers from its pattern,
// so it reads 0.
func BenchmarkProbe100kRules(b *testing.B) {
	const nRules, distinct = 100_000, 50
	eng, cal := newEngine(b)
	ch := cal.Chron()
	start := ch.EpochSecondsOf(d(1993, 1, 1))
	noop := FuncAction{Name: "noop", Fn: func(*store.Txn, *store.Event, int64) error { return nil }}
	exprs := fleetExprs(distinct)
	defs := make([]TemporalRuleDef, nRules)
	for i := range defs {
		defs[i] = TemporalRuleDef{Name: fmt.Sprintf("r%d", i), CalExpr: exprs[i%distinct], Action: noop}
	}
	if err := eng.DefineTemporalRules(start, defs); err != nil {
		b.Fatal(err)
	}
	cron, err := NewDBCron(eng, chronology.SecondsPerDay, start)
	if err != nil {
		b.Fatal(err)
	}
	now := start
	b.ResetTimer()
	fired := 0
	for i := 0; i < b.N; i++ {
		now += chronology.SecondsPerDay
		fs, err := cron.AdvanceTo(now)
		if err != nil {
			b.Fatal(err)
		}
		fired += len(fs)
	}
	b.ReportMetric(float64(fired)/float64(b.N), "firings/day")
	b.ReportMetric(float64(cal.WindowEvals()), "probes")
}

// BenchmarkDurableFiring is the durable firing path at fleet scale: 1 000
// rules over 50 expressions under a journalled DBCron with sync off, each
// action appending one FIRED row in its firing transaction (cron_fleet's
// shape). The loop advances one virtual day at a time until b.N rules have
// fired; ns/op, B/op and allocs/op are per firing, the probes included, and
// so are the journal's writes/op and fsyncs/op (0 here: sync is off).
func BenchmarkDurableFiring(b *testing.B) {
	const nRules, distinct = 1000, 50
	eng, cal := newEngine(b)
	db := cal.DB()
	schema, err := store.NewSchema(store.Column{Name: "rule", Type: store.TText}, store.Column{Name: "at", Type: store.TInt})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTable("FIRED", schema); err != nil {
		b.Fatal(err)
	}
	start := cal.Chron().EpochSecondsOf(d(1993, 1, 1))
	exprs := fleetExprs(distinct)
	defs := make([]TemporalRuleDef, nRules)
	for i := range defs {
		name := store.NewText(fmt.Sprintf("r%d", i))
		defs[i] = TemporalRuleDef{Name: name.S, CalExpr: exprs[i%distinct], Action: FuncAction{Name: "sentinel",
			Fn: func(tx *store.Txn, _ *store.Event, at int64) error {
				_, err := tx.Append("FIRED", store.Row{name, store.NewInt(at)})
				return err
			}}}
	}
	if err := eng.DefineTemporalRules(start, defs); err != nil {
		b.Fatal(err)
	}
	j, err := journal.Open(filepath.Join(b.TempDir(), "firing.journal"), journal.WithSync(false))
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	cron, err := NewDBCronWith(eng, chronology.SecondsPerDay, start, CronOptions{Journal: j, CatchUp: FireAll, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	j0 := j.Stats()
	b.ResetTimer()
	fired := 0
	for now := start; fired < b.N; {
		now += chronology.SecondsPerDay
		fs, err := cron.AdvanceTo(now)
		if err != nil {
			b.Fatal(err)
		}
		fired += len(fs)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	j1 := j.Stats()
	b.ReportMetric(float64(j1.Writes-j0.Writes)/float64(fired), "writes/op")
	b.ReportMetric(float64(j1.Fsyncs-j0.Fsyncs)/float64(fired), "fsyncs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/op")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(fired), "B/op")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(fired), "allocs/op")
}

// BenchmarkRecomputeAfterReplace is the mass recompute DBCRON runs after a
// catalog write, over 100k rules of which 1 % read the replaced holidays:
// each iteration replaces the stored list and recomputes. A rule whose
// values stamp did not move keeps its trigger untouched, so about 1 000 rules
// are recomputed per write, not 100 000 (rules_recomputed counts the rules
// whose stamp changed).
func BenchmarkRecomputeAfterReplace(b *testing.B) {
	const nRules, distinct = 100_000, 50
	eng, cal := newEngine(b)
	ch := cal.Chron()
	start := ch.EpochSecondsOf(d(1993, 1, 1))
	ls := caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}
	hols := make([]*calendar.Calendar, 2)
	for i := range hols {
		var err error
		if hols[i], err = calendar.FromPoints(chronology.Day, []chronology.Tick{2200 + chronology.Tick(i), 2250}); err != nil {
			b.Fatal(err)
		}
	}
	if err := cal.DefineStored("holidays", hols[0], ls); err != nil {
		b.Fatal(err)
	}
	noop := FuncAction{Name: "noop", Fn: func(*store.Txn, *store.Event, int64) error { return nil }}
	exprs := fleetExprs(distinct)
	defs := make([]TemporalRuleDef, nRules)
	for i := range defs {
		src := exprs[i%distinct]
		if i%100 == 0 {
			src = "([1,2,3,4,5]/DAYS:during:WEEKS) - holidays"
		}
		defs[i] = TemporalRuleDef{Name: fmt.Sprintf("r%d", i), CalExpr: src, Action: noop}
	}
	if err := eng.DefineTemporalRules(start, defs); err != nil {
		b.Fatal(err)
	}
	stamps := func() map[*temporalRule]uint64 {
		eng.mu.Lock()
		defer eng.mu.Unlock()
		out := make(map[*temporalRule]uint64, len(eng.temporal))
		for _, r := range eng.temporal {
			out[r] = r.values
		}
		return out
	}
	recomputed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := cal.ReplaceStored("holidays", hols[(i+1)%2]); err != nil {
			b.Fatal(err)
		}
		before := stamps()
		b.StartTimer()
		if _, err := eng.RecomputeAll(start); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for r, v := range stamps() {
			if before[r] != v {
				recomputed++
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(recomputed)/float64(b.N), "rules_recomputed")
}
