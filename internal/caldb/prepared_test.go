package caldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/callang/symbolic"
	calvet "calsys/internal/core/callang/vet"
	"calsys/internal/core/interval"
	"calsys/internal/core/plan"
)

// churnCatalog is the catalog the stamp-safety tests mutate: a stored
// holiday list, a derived calendar over it and a derived calendar over that,
// each of which may be defined or dropped at any moment, redefined with
// another body, and (the holidays) replaced by a list of another
// granularity.
type churnCatalog struct {
	m   *Manager
	rng *rand.Rand
}

var churnDefs = []struct {
	name string
	srcs []string // a definition picks one: drop-then-redefine can change the body
}{
	{"BIZ", []string{"([1,2,3,4,5]/DAYS:during:WEEKS) - HOLS", "([1,2,3,4]/DAYS:during:WEEKS) - HOLS"}},
	{"FIRSTBIZ", []string{"[1]/BIZ:during:MONTHS", "[2]/BIZ:during:MONTHS"}},
	// The second body branches, so it is never inlined: readers reach HOLS
	// through an opaque derivation and its D| entries.
	{"TUES", []string{"[2]/DAYS:during:WEEKS", "{t = [2]/DAYS:during:WEEKS; if (HOLS) { return (t - HOLS); } return (t);}"}},
}

// churnSources are the dependants the readers query: catalog references at
// several depths, a basic-only expression, a volatile one, a script that is
// not an expression, and sources that fail to parse or vet.
var churnSources = []string{
	"HOLS",
	"BIZ",
	"FIRSTBIZ",
	"[n]/BIZ:during:MONTHS",
	"TUES + HOLS",
	"[1]/TUES:during:MONTHS",
	// Reads the catalog's TUES before assigning its own: TUES is a
	// dependency even while it is absent.
	"{x = TUES; TUES = DAYS:during:WEEKS; return (x + TUES);}",
	"[3]/([5]/DAYS:during:WEEKS):overlaps:MONTHS",
	"today",
	"BIZ + today",
	"x = DAYS; return (x);",
	"DAYS:during:",
	"[0]/DAYS:during:WEEKS",
	"NOPE:during:MONTHS",
}

// randomHols is six days of January-February 1993, or one time in six six
// weeks of it: a replace can change the granularity.
func (c *churnCatalog) randomHols() *calendar.Calendar {
	g, first, step := chronology.Day, 2193, 9
	if c.rng.Intn(6) == 0 {
		g, first, step = chronology.Week, 314, 2
	}
	ticks := make([]chronology.Tick, 0, 6)
	for t := chronology.Tick(first + c.rng.Intn(5)); len(ticks) < 6; t += chronology.Tick(1 + c.rng.Intn(step)) {
		ticks = append(ticks, t)
	}
	cal, err := calendar.FromPoints(g, ticks)
	if err != nil {
		panic(err)
	}
	return cal
}

// mutate applies one random Define/Drop/ReplaceStored. Errors (dropping a
// missing calendar, defining one whose references are gone) are part of the
// workload: the catalog simply does not change.
func (c *churnCatalog) mutate() {
	ls := lifespanFrom1985()
	switch op := c.rng.Intn(8); {
	case op < 3:
		if _, ok := c.m.Lookup("HOLS"); ok {
			_ = c.m.ReplaceStored("HOLS", c.randomHols())
		} else if c.m.gen.Load()%2 == 0 {
			// Every other definition has no lifespan bound, so that HOLS's
			// points lower into the dependants' patterns.
			_ = c.m.DefineStored("HOLS", c.randomHols(), Lifespan{Lo: 1, Hi: MaxDayTick})
		} else {
			_ = c.m.DefineStored("HOLS", c.randomHols(), ls)
		}
	case op == 3:
		_ = c.m.Drop("HOLS")
	default:
		def := churnDefs[c.rng.Intn(len(churnDefs))]
		if _, ok := c.m.Lookup(def.name); ok {
			_ = c.m.Drop(def.name)
		} else {
			_ = c.m.DefineDerived(def.name, def.srcs[c.rng.Intn(len(def.srcs))], ls, GranAuto)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstUncached compares everything the Prepared table serves for src
// with the same answers derived from scratch on the current catalog.
func checkAgainstUncached(t *testing.T, m *Manager, src string, from, to chronology.Civil, now int64) {
	t.Helper()
	clock := func() int64 { return now }

	want := calvet.ParseAndAnalyze(src, m, calvet.Options{Chron: m.chron})
	if got := m.Vet("", src); !reflect.DeepEqual(got, want) {
		t.Fatalf("gen %d: Vet(%q)\n got %v\nwant %v", m.gen.Load(), src, got, want)
	}

	env := m.Env()
	env.Now = clock
	got, gerr := m.EvalExprEnv(env, src, from, to)
	var truth *calendar.Calendar
	e, werr := callang.ParseExpr(src)
	if werr == nil {
		oracle := m.uncachedEnv()
		oracle.Now = clock
		truth, werr = plan.Evaluate(oracle, e, from, to)
	}
	if errText(gerr) != errText(werr) {
		t.Fatalf("gen %d: EvalExpr(%q) error %q, uncached %q", m.gen.Load(), src, errText(gerr), errText(werr))
	}
	if gerr == nil && !got.Equal(truth) {
		t.Fatalf("gen %d: EvalExpr(%q, %v..%v)\n got %v\nwant %v", m.gen.Load(), src, from, to, got, truth)
	}

	p := m.Prepared("", src)
	l, lerr := p.Lowered()
	if lerr != nil || l.Volatile {
		return // no next instant from the entry: parse error, or the clock is needed
	}
	// A pattern lists what the plan lists in the window, in order.
	if pat, ok := p.Pattern(); ok && gerr == nil {
		win, err := plan.CivilWindow(m.chron, l.Gran, from, to)
		if err != nil {
			t.Fatal(err)
		}
		var want, got []interval.Interval
		for _, iv := range truth.Flatten().Intervals() {
			if iv.Hi >= win.Lo && iv.Lo <= win.Hi {
				want = append(want, iv)
			}
		}
		if first, last, ok := pat.IndexRange(win); ok {
			c := pat.Walk(first)
			got = c.Next(make([]interval.Interval, last-first+1))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("gen %d: pattern of %q over %v..%v\n got %v\nwant %v", m.gen.Load(), src, from, to, got, want)
		}
	}
	oracle := m.Env()
	prepped, gran, perr := plan.Prepare(oracle, e, nil)
	if perr != nil {
		t.Fatalf("uncached Prepare(%q): %v", src, perr)
	}
	wat, wok, wserr := plan.NextInstant(oracle, prepped, gran, now, 0)
	if at, ok, serr := p.NextAfter(now, 0); at != wat || ok != wok || errText(serr) != errText(wserr) {
		t.Fatalf("gen %d: Prepared.NextAfter(%q) = %d %v %q, uncached %d %v %q",
			m.gen.Load(), src, at, ok, errText(serr), wat, wok, errText(wserr))
	}
}

// TestPreparedMatchesUncachedUnderChurn interleaves random catalog mutations
// with verdicts, expansions and next-instant queries on dependants; every
// answer must equal the one derived from scratch on the same catalog state.
func TestPreparedMatchesUncachedUnderChurn(t *testing.T) {
	windows := [][2]chronology.Civil{
		{d(1993, 1, 1), d(1993, 2, 28)},
		{d(1993, 1, 15), d(1993, 3, 31)},
	}
	for seed := int64(1); seed <= 4; seed++ {
		m := newManager(t)
		c := &churnCatalog{m: m, rng: rand.New(rand.NewSource(seed))}
		now := m.chron.EpochSecondsOf(d(1993, 1, 4))
		for step := 0; step < 120; step++ {
			c.mutate()
			// Several queries per catalog state, so that most are table hits.
			for q := 0; q < 6; q++ {
				src := churnSources[c.rng.Intn(len(churnSources))]
				w := windows[c.rng.Intn(len(windows))]
				checkAgainstUncached(t, m, src, w[0], w[1], now)
			}
		}
		st := m.PreparedStats()
		if st.Hits == 0 || st.Misses == 0 || st.Stale == 0 {
			t.Fatalf("seed %d: the run did not exercise the table: %+v", seed, st)
		}
	}
}

// The pinned transitions: a verdict flips with the definition it depends on,
// keeps its position, and a replaced stored calendar changes the expansion.
func TestPreparedFollowsCatalogTransitions(t *testing.T) {
	m := newManager(t)
	ls := lifespanFrom1985()
	const src = "([1,2,3,4,5]/DAYS:during:WEEKS) - HOLS"
	from, to := d(1993, 1, 1), d(1993, 1, 31)
	undefined := func(when string) {
		t.Helper()
		ds := m.Vet("", src)
		if len(ds) != 1 || ds[0].Code != calvet.CodeUndefinedRef || ds[0].Pos.String() != "1:35" {
			t.Fatalf("%s: Vet = %v, want one CV001 at 1:35", when, ds)
		}
	}
	undefined("before the definition")
	undefined("repeated")

	hol, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{2223}) // a Sunday
	if err := m.DefineStored("HOLS", hol, ls); err != nil {
		t.Fatal(err)
	}
	if ds := m.Vet("", src); ds.HasErrors() {
		t.Fatalf("after the definition: %v", ds)
	}
	first, err := m.EvalExpr(src, from, to)
	if err != nil {
		t.Fatal(err)
	}

	hol2, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{2217}) // a Monday
	if err := m.ReplaceStored("HOLS", hol2); err != nil {
		t.Fatal(err)
	}
	second, err := m.EvalExpr(src, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if second.Equal(first) {
		t.Fatal("expansion unchanged by ReplaceStored")
	}

	if err := m.Drop("HOLS"); err != nil {
		t.Fatal(err)
	}
	undefined("after the drop")

	// A volatile expression is lowered once and still never enters matcache.
	l, err := m.Prepared("", "today + HOLS").Lowered()
	if err != nil || !l.Volatile || l.BasicOnly {
		t.Fatalf("Lowered(today + HOLS) = %+v, %v", l, err)
	}
}

// Concurrent readers and writers (run under -race): while the catalog moves
// nothing is compared, but once the writers stop every source must again
// answer exactly like the uncached path — a value derived from an older
// catalog must not have been published under the final generation.
func TestPreparedConcurrentChurn(t *testing.T) {
	m := newManager(t)
	from, to := d(1993, 1, 1), d(1993, 2, 28)
	now := m.chron.EpochSecondsOf(d(1993, 1, 4))
	for round := 0; round < 8; round++ {
		var writers, readers sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				rng := rand.New(rand.NewSource(int64(round*10 + r)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					src := churnSources[rng.Intn(len(churnSources))]
					p := m.Prepared("", src)
					_ = p.Diags()
					_, _ = m.EvalExpr(src, from, to)
					if l, err := p.Lowered(); err == nil && !l.Volatile {
						_, _, _ = p.NextAfter(now, 0)
					}
				}
			}(r)
		}
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				c := &churnCatalog{m: m, rng: rand.New(rand.NewSource(int64(round*10 + w)))}
				for i := 0; i < 40; i++ {
					c.mutate()
				}
			}(w)
		}
		writers.Wait()
		close(stop)
		readers.Wait()
		for _, src := range churnSources {
			checkAgainstUncached(t, m, src, from, to, now)
		}
	}
}

// The table is bounded: a stream of one-off sources cycles through it.
func TestPreparedTableStaysUnderCap(t *testing.T) {
	m := newManager(t)
	for i := 0; i < 10000; i++ {
		m.Prepared("", fmt.Sprintf("[%d]/DAYS:during:YEARS", i+1))
		if n := m.PreparedStats().Entries; n > preparedCap {
			t.Fatalf("after %d sources the table holds %d entries, cap %d", i+1, n, preparedCap)
		}
	}
	st := m.PreparedStats()
	if st.Misses != 10000 || st.Resets < 10000/preparedCap {
		t.Fatalf("stats %+v", st)
	}
}

// Concurrent first requests for one source all get the one published entry,
// so its analysis runs once.
func TestPreparedPublishesOneEntry(t *testing.T) {
	m := newManager(t)
	const src = "[3]/([5]/DAYS:during:WEEKS):overlaps:MONTHS"
	got := make([]*Prepared, 32)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			got[i] = m.Prepared("", src)
			_ = got[i].Diags()
		}(i)
	}
	start.Done()
	done.Wait()
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("goroutine %d got a different entry", i)
		}
	}
	if n := m.PreparedStats().Entries; n != 1 {
		t.Fatalf("%d entries, want 1", n)
	}
}

// A second tenant's first use of a yearly recurrence — its calvet verdict and
// its prepared expression — reads the lowering the first tenant paid for:
// every sub-expression is basic-only and served by the process-wide memo, so
// nothing is lowered again and what is left is parsing, vetting, inlining and
// factorising, not a walk of the 400-year Gregorian cycle.
func TestSecondTenantDoesNotReLower(t *testing.T) {
	const src = "[4]/(DAYS:during:([7]/(MONTHS:during:YEARS)))"
	firstUse := func(m *Manager) {
		p := m.Prepared("", src)
		if p.Diags().HasErrors() {
			t.Fatal(p.Diags())
		}
		if _, err := p.Lowered(); err != nil {
			t.Fatal(err)
		}
	}
	firstUse(newManager(t))
	tenants := make([]*Manager, 6)
	for i := range tenants {
		tenants[i] = newManager(t)
	}
	misses, next := symbolic.Stats().Misses, 0
	allocs := testing.AllocsPerRun(len(tenants)-1, func() {
		firstUse(tenants[next])
		next++
	})
	if st := symbolic.Stats(); st.Misses != misses {
		t.Fatalf("later tenants lowered %d expressions again", st.Misses-misses)
	}
	// Parsing, vetting and preparing the source take about 250 allocations; a
	// cold lowering of it alone takes about 870 (BenchmarkLowerCold/yearly).
	if allocs > 500 {
		t.Fatalf("a later tenant's first use costs %.0f allocations, want at most 500", allocs)
	}
}

// Each next-instant query searches the horizon its call passes: two callers
// asking one entry that no pattern answers, over 3 and 730 days, each always
// get the last day of their own window, however their calls interleave (the
// race job runs this at -count=10). Every such call is one window evaluation.
func TestNextAfterHorizonPerCall(t *testing.T) {
	m := newManager(t)
	p := m.Prepared("", "[n]/DAYS")
	if _, ok := p.Pattern(); ok {
		t.Fatal("[n]/DAYS answers from a pattern: the test shows nothing")
	}
	after := m.chron.EpochSecondsOf(d(1993, 1, 1))
	horizons := []int64{3, 730}
	want := make([]int64, len(horizons))
	for i, h := range horizons {
		at, ok, err := p.NextAfter(after, h)
		if err != nil || !ok {
			t.Fatalf("NextAfter(%d days) = %v,%v", h, ok, err)
		}
		if want[i] = at; m.chron.CivilOf(at) != d(1993, 1, 1).AddDays(h) {
			t.Fatalf("NextAfter(%d days) = %v, want the window's last day", h, m.chron.CivilOf(at))
		}
	}
	const calls = 2000
	var wg sync.WaitGroup
	for i, h := range horizons {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < calls; n++ {
				at, ok, err := p.NextAfter(after, h)
				if err != nil || !ok || at != want[i] {
					t.Errorf("call %d with a %d-day horizon = %v,%v,%v; want %v",
						n, h, m.chron.CivilOf(at), ok, err, m.chron.CivilOf(want[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := m.WindowEvals(), int64(len(horizons)*(calls+1)); got != want {
		t.Errorf("%d window evaluations, want %d (one per call)", got, want)
	}
}
