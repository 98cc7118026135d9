package plan_test

import (
	"math/rand"
	"sync"
	"testing"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/plan"
	"calsys/internal/store"
)

// The properties below hold caldb.Prepared.NextAfter — a pattern's
// arithmetic where /expand would answer from it, else an evaluation of the
// call's horizon window — to the window definition: a plan.Scheduler over
// the same catalog run eagerly (DisableSharing).

func d(y, m, day int) chronology.Civil { return chronology.Civil{Year: y, Month: m, Day: day} }

// nextManager is a catalog with the derived calendar Mondays, which the
// preparer inlines, and the stored calendar HOLS, whose absolute elements
// include three weekdays the business-day selections of plan.NextTestExprs
// pick: Thursday 1992-12-31 (2192) and Monday 1993-05-31 (2343) end their
// months, and Monday 1993-01-04 (2196) starts its week.
func nextManager(t testing.TB) *caldb.Manager {
	t.Helper()
	m, err := caldb.New(store.NewDB(), chronology.MustNew(chronology.DefaultEpoch))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DefineDerived("Mondays", "[1]/DAYS:during:WEEKS;", caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}, chronology.Day); err != nil {
		t.Fatal(err)
	}
	hol, err := calendar.FromPoints(chronology.Day, []chronology.Tick{31, 390, 1126, 2192, 2196, 2250, 2343, 2990, 3330})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DefineStored("HOLS", hol, caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}); err != nil {
		t.Fatal(err)
	}
	return m
}

// nextSides returns src's Prepared entry and the window definition it is
// held to, both searching horizonDays ahead.
func nextSides(t testing.TB, m *caldb.Manager, src string, horizonDays int64) (*caldb.Prepared, *plan.Scheduler) {
	t.Helper()
	p := m.Prepared("", src)
	l, err := p.Lowered()
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	ref := plan.NewScheduler(&plan.Env{Chron: m.Chron(), Cat: m, DisableSharing: true}, l.Expr, l.Gran)
	ref.Configure(horizonDays)
	return p, ref
}

// The central property: for every expression shape, a random walk of
// queries through the Prepared entry agrees exactly with the full-window
// minimum start strictly after each query (bit-for-bit the seed
// nextTrigger), and the one-shot NextInstant agrees with both.
func TestNextAfterMatchesWindowedMinimum(t *testing.T) {
	m := nextManager(t)
	ch := m.Chron()
	const horizonDays = 140
	base := ch.EpochSecondsOf(d(1991, 1, 1))
	span := ch.EpochSecondsOf(d(1996, 1, 1)) - base
	rng := rand.New(rand.NewSource(2026))
	patterns := 0
	for _, src := range plan.NextTestExprs {
		p, ref := nextSides(t, m, src, horizonDays)
		if _, ok := p.Pattern(); ok {
			patterns++
		}
		l, _ := p.Lowered()
		for i := 0; i < 1000; i++ {
			after := base + rng.Int63n(span)
			got, gok, err := p.NextAfter(after, horizonDays)
			if err != nil {
				t.Fatalf("%q: NextAfter(%d): %v", src, after, err)
			}
			want, wok, err := ref.NextAfter(after)
			if err != nil {
				t.Fatalf("%q: windowed NextAfter(%d): %v", src, after, err)
			}
			if gok != wok || (gok && got != want) {
				t.Fatalf("%q: NextAfter(%d [%v]) = %d,%v; windowed minimum = %d,%v",
					src, after, ch.CivilOf(after), got, gok, want, wok)
			}
			if gok && got <= after {
				t.Fatalf("%q: NextAfter(%d) = %d, not strictly after", src, after, got)
			}
			// Subsample the one-shot form (a fresh Scheduler per call).
			if i%97 == 0 {
				one, ook, err := plan.NextInstant(m.Env(), l.Expr, l.Gran, after, horizonDays)
				if err != nil {
					t.Fatalf("%q: NextInstant(%d): %v", src, after, err)
				}
				if ook != wok || (ook && one != want) {
					t.Fatalf("%q: NextInstant(%d) = %d,%v; windowed minimum = %d,%v",
						src, after, one, ook, want, wok)
				}
			}
		}
	}
	if patterns < 5 || patterns == len(plan.NextTestExprs) {
		t.Errorf("%d of %d expressions answer from a pattern: the sweep does not cover both answers", patterns, len(plan.NextTestExprs))
	}
}

// Walking forward through consecutive answers (the firing pattern DBCRON
// drives) must also match the window definition: each answer feeds the next
// query, so the walk crosses group, month and year boundaries and the stored
// holidays, and each query without a pattern evaluates its own window.
func TestNextAfterForwardWalk(t *testing.T) {
	m := nextManager(t)
	ch := m.Chron()
	const horizonDays = 140
	for _, src := range plan.NextTestExprs {
		p, ref := nextSides(t, m, src, horizonDays)
		at := ch.EpochSecondsOf(d(1992, 11, 15))
		for step := 0; step < 200; step++ {
			got, gok, err := p.NextAfter(at, horizonDays)
			if err != nil {
				t.Fatalf("%q: step %d: %v", src, step, err)
			}
			want, wok, err := ref.NextAfter(at)
			if err != nil {
				t.Fatalf("%q: step %d windowed: %v", src, step, err)
			}
			if gok != wok || (gok && got != want) {
				t.Fatalf("%q: step %d after %v: %d,%v; windowed %d,%v",
					src, step, ch.CivilOf(at), got, gok, want, wok)
			}
			if !gok {
				break // dormant beyond the horizon
			}
			at = got
		}
	}
	// The selection over nested groups picks per week-in-a-month group, as
	// /expand lists it: after New Year's Day 1993 comes Monday the 4th.
	p, _ := nextSides(t, m, plan.NestedSelect, horizonDays)
	if at, ok, err := p.NextAfter(ch.EpochSecondsOf(d(1993, 1, 1)), horizonDays); err != nil || !ok || ch.CivilOf(at) != d(1993, 1, 4) {
		t.Fatalf("%q after 1993-01-01 = %v,%v,%v; want 1993-01-04", plan.NestedSelect, ch.CivilOf(at), ok, err)
	}
}

// One Prepared entry is shared by every rule over its expression, so
// concurrent queries must be race-free and still individually exact (the CI
// race job runs this package under -race).
func TestNextAfterConcurrentSharedScheduler(t *testing.T) {
	m := nextManager(t)
	ch := m.Chron()
	const horizonDays = 140
	base := ch.EpochSecondsOf(d(1992, 1, 1))
	span := ch.EpochSecondsOf(d(1995, 1, 1)) - base
	for _, src := range []string{
		"[2]/DAYS:during:WEEKS",
		"[n]/DAYS:during:MONTHS",
		"[n]/DAYS:during:caloperate(MONTHS, 3)",
		"[n]/(([1,2,3,4,5]/DAYS:during:WEEKS) - HOLS):during:MONTHS",
		plan.NestedSelect,
	} {
		p, ref := nextSides(t, m, src, horizonDays)

		// Precompute reference answers sequentially.
		rng := rand.New(rand.NewSource(7))
		afters := make([]int64, 200)
		wants := make([]int64, len(afters))
		woks := make([]bool, len(afters))
		for i := range afters {
			afters[i] = base + rng.Int63n(span)
			w, ok, err := ref.NextAfter(afters[i])
			if err != nil {
				t.Fatal(err)
			}
			wants[i], woks[i] = w, ok
		}

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(afters); i += 4 {
					got, ok, err := p.NextAfter(afters[i], horizonDays)
					if err != nil {
						t.Errorf("%q: concurrent NextAfter(%d): %v", src, afters[i], err)
						return
					}
					if ok != woks[i] || (ok && got != wants[i]) {
						t.Errorf("%q: concurrent NextAfter(%d) = %d,%v, want %d,%v",
							src, afters[i], got, ok, wants[i], woks[i])
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// An expression /expand answers from its pattern never probes: a forward
// walk over a weekly selection, the bare basic calendar or the last business
// day of the month less the stored HOLS is arithmetic only, and the
// catalog counts no window evaluation.
func TestNextAfterAmortizesProbes(t *testing.T) {
	m := nextManager(t)
	ch := m.Chron()
	for _, tc := range []struct {
		src   string
		steps int
	}{{"[2]/DAYS:during:WEEKS", 52}, {"DAYS", 100}, {"[n]/(([1,2,3,4,5]/DAYS:during:WEEKS) - HOLS):during:MONTHS", 100}} {
		p := m.Prepared("", tc.src)
		at := ch.EpochSecondsOf(d(1993, 1, 1))
		for i := 0; i < tc.steps; i++ {
			next, ok, err := p.NextAfter(at, 0)
			if err != nil || !ok {
				t.Fatalf("%q step %d: next=%v ok=%v err=%v", tc.src, i, next, ok, err)
			}
			at = next
		}
		if n := m.WindowEvals(); n != 0 {
			t.Errorf("%q: %d steps cost %d window evaluations, want 0", tc.src, tc.steps, n)
		}
	}
}

// A composition that lowers and is window-exact answers from its pattern
// with zero probes, ever; a scheduler of the same expression is the window
// definition, one probe per query, with identical answers — the ablation the
// benchmarks measure.
func TestSchedulerSymbolicExactAndAblation(t *testing.T) {
	m := nextManager(t)
	ch := m.Chron()
	p, ref := nextSides(t, m, "[1]/DAYS:during:WEEKS", plan.DefaultHorizonDays)
	if pat, ok := p.Pattern(); !ok || pat == nil {
		t.Fatal("composition did not lower to an exact pattern")
	}
	at := ch.EpochSecondsOf(d(1993, 1, 1))
	for i := 0; i < 52; i++ {
		next, ok, err := p.NextAfter(at, 0)
		if err != nil || !ok {
			t.Fatalf("step %d: next=%v ok=%v err=%v", i, next, ok, err)
		}
		want, wok, err := ref.NextAfter(at)
		if err != nil || !wok || want != next {
			t.Fatalf("step %d: pattern %d, window %d,%v err=%v", i, next, want, wok, err)
		}
		at = next
	}
	if n := m.WindowEvals(); n != 0 {
		t.Errorf("pattern walk ran %d window evaluations, want 0", n)
	}
	if n := ref.Probes(); n != 52 {
		t.Errorf("window walk ran %d probes, want one per query (52)", n)
	}
}

// A provably-empty expression is dormant: NextAfter answers ok=false without
// evaluating anything, and agrees with the window definition.
func TestSchedulerDormantEmpty(t *testing.T) {
	m := nextManager(t)
	ch := m.Chron()
	p, ref := nextSides(t, m, "DAYS - DAYS", plan.DefaultHorizonDays)
	if pat, ok := p.Pattern(); !ok || pat != nil {
		t.Fatalf("Pattern() = %v,%v; want the proof of emptiness (nil, true)", pat, ok)
	}
	after := ch.EpochSecondsOf(d(1993, 6, 1))
	if _, ok, err := p.NextAfter(after, 0); ok || err != nil {
		t.Fatalf("dormant NextAfter = ok=%v err=%v, want false,nil", ok, err)
	}
	if n := m.WindowEvals(); n != 0 {
		t.Errorf("dormant expression ran %d window evaluations, want 0", n)
	}
	if _, ok, err := ref.NextAfter(after); ok || err != nil {
		t.Fatalf("windowed reference disagrees: ok=%v err=%v", ok, err)
	}
}
