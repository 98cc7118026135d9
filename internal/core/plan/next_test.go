package plan

import (
	"math/rand"
	"sync"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
)

// nextTestExprs covers every kernel path: exact infinite patterns (basic
// calendars and the compositions that lower), the cached probe (anchor-free
// expressions over a stored calendar), and the full-window rung (caloperate
// grouping, end-relative selections, and order-1 selections over a basic
// calendar, which are anchored at the probe instant and have no symbolic form).
var nextTestExprs = []string{
	"DAYS",
	"WEEKS",
	"MONTHS",
	"[1]/DAYS:during:WEEKS",
	"[2]/DAYS:during:WEEKS",
	"[3]/WEEKS:overlaps:MONTHS",
	"[3]/([5]/DAYS:during:WEEKS):overlaps:MONTHS",
	"[n]/DAYS:during:MONTHS",
	"[n]/DAYS:during:caloperate(MONTHS, 3)",
	"[1,2,3,4,5]/DAYS:during:WEEKS",
	"WEEKS:during:interval(2193, 2223)",
	"([1]/DAYS:during:WEEKS) + ([2]/DAYS:during:WEEKS)",
	"(DAYS:during:WEEKS) - ([1]/DAYS:during:WEEKS)",
	"[2]/(DAYS:during:MONTHS)",
	"Mondays",
	"HOLS:during:YEARS",
	"[3]/DAYS",
	"[2]/WEEKS",
	"[1,5]/DAYS",
	"[40]/WEEKS",
	"[30]/MONTHS",
}

// nextPropEnv is the catalog for the next-instant properties: one derived
// calendar the preparer inlines and one stored calendar with absolute
// elements.
func nextPropEnv(t testing.TB) *Env {
	t.Helper()
	env, cat := env1987(t)
	defineScript(t, cat, "Mondays", "[1]/DAYS:during:WEEKS;", chronology.Day)
	hol, err := calendar.FromPoints(chronology.Day, []chronology.Tick{31, 390, 1126, 2250, 2990, 3330})
	if err != nil {
		t.Fatal(err)
	}
	cat.Stored["HOLS"] = hol
	cat.Kinds["HOLS"] = chronology.Day
	return env
}

func prepFor(t testing.TB, env *Env, src string) (callang.Expr, chronology.Granularity) {
	t.Helper()
	prepped, gran, err := Prepare(env, expr(t, src), nil)
	if err != nil {
		t.Fatalf("prepare %q: %v", src, err)
	}
	return prepped, gran
}

// The central kernel property: for every expression shape, a shared Scheduler
// answering a random walk of queries must agree exactly with the seed
// full-window path (forceWindowed evaluates the whole horizon and scans for
// the minimum start strictly after the query — bit-for-bit the old
// nextTrigger), and the one-shot NextInstant must agree with both.
func TestNextAfterMatchesWindowedMinimum(t *testing.T) {
	env := nextPropEnv(t)
	ch := env.Chron
	const horizonDays = 140
	base := ch.EpochSecondsOf(d(1991, 1, 1))
	span := ch.EpochSecondsOf(d(1996, 1, 1)) - base
	rng := rand.New(rand.NewSource(2026))
	for _, src := range nextTestExprs {
		prepped, gran := prepFor(t, env, src)
		kern := NewScheduler(env, prepped, gran)
		kern.Configure(horizonDays, false)
		ref := NewScheduler(env, prepped, gran)
		ref.Configure(horizonDays, true)
		for i := 0; i < 1000; i++ {
			after := base + rng.Int63n(span)
			got, gok, err := kern.NextAfter(after)
			if err != nil {
				t.Fatalf("%q: kernel NextAfter(%d): %v", src, after, err)
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
				one, ook, err := NextInstant(env, prepped, gran, after, horizonDays)
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
}

// Walking forward through consecutive answers (the firing pattern DBCRON
// drives) must also match the seed path: each answer feeds the next query, so
// cache re-anchoring and the safeThru edge are crossed repeatedly.
func TestNextAfterForwardWalk(t *testing.T) {
	env := nextPropEnv(t)
	ch := env.Chron
	const horizonDays = 140
	for _, src := range nextTestExprs {
		prepped, gran := prepFor(t, env, src)
		kern := NewScheduler(env, prepped, gran)
		kern.Configure(horizonDays, false)
		ref := NewScheduler(env, prepped, gran)
		ref.Configure(horizonDays, true)
		at := ch.EpochSecondsOf(d(1992, 11, 15))
		for step := 0; step < 200; step++ {
			got, gok, err := kern.NextAfter(at)
			if err != nil {
				t.Fatalf("%q: step %d: %v", src, step, err)
			}
			want, wok, err := ref.NextAfter(at)
			if err != nil {
				t.Fatalf("%q: step %d windowed: %v", src, step, err)
			}
			if gok != wok || (gok && got != want) {
				t.Fatalf("%q: step %d after %v: kernel %d,%v windowed %d,%v",
					src, step, ch.CivilOf(at), got, gok, want, wok)
			}
			if !gok {
				break // dormant beyond the horizon
			}
			at = got
		}
	}
}

// One Scheduler is shared by every rule in a plan group, so concurrent
// queries must be race-free and still individually exact (the CI race job
// runs this package under -race).
func TestNextAfterConcurrentSharedScheduler(t *testing.T) {
	env := nextPropEnv(t)
	ch := env.Chron
	const horizonDays = 140
	base := ch.EpochSecondsOf(d(1992, 1, 1))
	span := ch.EpochSecondsOf(d(1995, 1, 1)) - base
	for _, src := range []string{"[2]/DAYS:during:WEEKS", "[n]/DAYS:during:MONTHS", "[n]/DAYS:during:caloperate(MONTHS, 3)"} {
		prepped, gran := prepFor(t, env, src)

		// Precompute reference answers sequentially.
		rng := rand.New(rand.NewSource(7))
		afters := make([]int64, 200)
		wants := make([]int64, len(afters))
		woks := make([]bool, len(afters))
		ref := NewScheduler(env, prepped, gran)
		ref.Configure(horizonDays, true)
		for i := range afters {
			afters[i] = base + rng.Int63n(span)
			w, ok, err := ref.NextAfter(afters[i])
			if err != nil {
				t.Fatal(err)
			}
			wants[i], woks[i] = w, ok
		}

		shared := NewScheduler(env, prepped, gran)
		shared.Configure(horizonDays, false)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(afters); i += 4 {
					got, ok, err := shared.NextAfter(afters[i])
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

// The kernel must amortize: a forward walk over a periodic expression may
// probe (evaluate a window) only a handful of times, where the seed path
// probes once per query.
func TestNextAfterAmortizesProbes(t *testing.T) {
	env := nextPropEnv(t)
	ch := env.Chron
	prepped, gran := prepFor(t, env, "[2]/DAYS:during:WEEKS")
	s := NewScheduler(env, prepped, gran)
	s.Configure(DefaultHorizonDays, false)
	at := ch.EpochSecondsOf(d(1993, 1, 1))
	for i := 0; i < 52; i++ { // a year of weekly firings
		next, ok, err := s.NextAfter(at)
		if err != nil || !ok {
			t.Fatalf("step %d: next=%v ok=%v err=%v", i, next, ok, err)
		}
		at = next
	}
	if p := s.Probes(); p > 2 {
		t.Errorf("52 weekly steps cost %d probes, want <= 2", p)
	}
	// The bare basic calendar never probes at all: pure pattern arithmetic.
	preppedD, granD := prepFor(t, env, "DAYS")
	sd := NewScheduler(env, preppedD, granD)
	at = ch.EpochSecondsOf(d(1993, 1, 1))
	for i := 0; i < 100; i++ {
		next, ok, err := sd.NextAfter(at)
		if err != nil || !ok {
			t.Fatalf("daily step %d: %v %v", i, ok, err)
		}
		at = next
	}
	if p := sd.Probes(); p != 0 {
		t.Errorf("basic calendar walk ran %d probes, want 0", p)
	}
}

// Compositions the symbolic calculus can lower get the same arithmetic-only
// exact rung as basic calendars: zero probes, ever. DisableSymbolic restores
// the probing paths with identical answers — the ablation the benchmarks
// measure.
func TestSchedulerSymbolicExactAndAblation(t *testing.T) {
	env := nextPropEnv(t)
	ch := env.Chron
	prepped, gran := prepFor(t, env, "[1]/DAYS:during:WEEKS")
	s := NewScheduler(env, prepped, gran)
	if s.exact == nil {
		t.Fatal("composition did not lower to an exact pattern")
	}

	abl := &Env{Chron: env.Chron, Cat: env.Cat, DisableSymbolic: true}
	sa := NewScheduler(abl, prepped, gran)
	if sa.exact != nil {
		t.Fatal("DisableSymbolic left an exact pattern in place")
	}

	at := ch.EpochSecondsOf(d(1993, 1, 1))
	for i := 0; i < 52; i++ {
		next, ok, err := s.NextAfter(at)
		if err != nil || !ok {
			t.Fatalf("step %d: next=%v ok=%v err=%v", i, next, ok, err)
		}
		want, wok, err := sa.NextAfter(at)
		if err != nil || !wok || want != next {
			t.Fatalf("step %d: symbolic %d, ablated %d,%v err=%v", i, next, want, wok, err)
		}
		at = next
	}
	if p := s.Probes(); p != 0 {
		t.Errorf("symbolic walk ran %d probes, want 0", p)
	}
	if p := sa.Probes(); p == 0 {
		t.Error("ablated walk ran 0 probes; the knob did nothing")
	}
}

// A provably-empty expression makes the scheduler dormant: NextAfter answers
// ok=false without evaluating anything, and agrees with the seed path.
func TestSchedulerDormantEmpty(t *testing.T) {
	env := nextPropEnv(t)
	ch := env.Chron
	prepped, gran := prepFor(t, env, "DAYS - DAYS")
	s := NewScheduler(env, prepped, gran)
	if !s.dormant {
		t.Fatal("empty expression not marked dormant")
	}
	after := ch.EpochSecondsOf(d(1993, 6, 1))
	if _, ok, err := s.NextAfter(after); ok || err != nil {
		t.Fatalf("dormant NextAfter = ok=%v err=%v, want false,nil", ok, err)
	}
	if p := s.Probes(); p != 0 {
		t.Errorf("dormant scheduler ran %d probes, want 0", p)
	}
	ref := NewScheduler(env, prepped, gran)
	ref.Configure(0, true)
	if _, ok, err := ref.NextAfter(after); ok || err != nil {
		t.Fatalf("windowed reference disagrees: ok=%v err=%v", ok, err)
	}
}
