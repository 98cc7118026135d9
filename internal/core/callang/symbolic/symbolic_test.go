package symbolic_test

import (
	"math/rand"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/callang"
	"calsys/internal/core/callang/symbolic"
	"calsys/internal/core/interval"
	"calsys/internal/core/periodic"
	"calsys/internal/core/plan"
)

func testEnv(t *testing.T) (*plan.Env, *plan.MapCatalog) {
	t.Helper()
	ch := chronology.MustNew(chronology.DefaultEpoch)
	cat := plan.NewMapCatalog()
	return &plan.Env{Chron: ch, Cat: cat}, cat
}

func define(t *testing.T, cat *plan.MapCatalog, name, src string, g chronology.Granularity) {
	t.Helper()
	s, err := callang.ParseScript(src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	cat.Scripts[name] = s
	cat.Kinds[name] = g
}

func expr(t *testing.T, src string) callang.Expr {
	t.Helper()
	e, err := callang.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

func offWin(lo, hi int64) interval.Interval {
	return interval.Interval{Lo: chronology.TickFromOffset(lo), Hi: chronology.TickFromOffset(hi)}
}

// filterOverlapping keeps the intervals overlapping win, preserving order
// and duplicates.
func filterOverlapping(ivs []interval.Interval, win interval.Interval) []interval.Interval {
	var out []interval.Interval
	for _, iv := range ivs {
		if iv.Hi >= win.Lo && iv.Lo <= win.Hi {
			out = append(out, iv)
		}
	}
	return out
}

func sameIntervals(t *testing.T, got, want []interval.Interval, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d intervals, want %d\ngot:  %v\nwant: %v", ctx, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: interval %d: got %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

// The property suite: for every expression shape, the symbolically lowered
// pattern expands to exactly what full plan evaluation materializes, on the
// interior of every random window (a margin absorbs generation-edge effects:
// groups straddling the window's edge are incomplete in the materialized
// oracle but not in the infinite symbolic list).
func TestSymbolicMatchesMaterialized(t *testing.T) {
	shapes := []string{
		"DAYS",
		"WEEKS",
		"MONTHS",
		"DAYS:during:WEEKS",
		"DAYS:during:MONTHS",
		"DAYS:meets:WEEKS",
		"WEEKS:overlaps:MONTHS",
		"WEEKS.overlaps.MONTHS",
		"[1]/DAYS:during:WEEKS",
		"[2]/DAYS:during:WEEKS",
		"[n]/DAYS:during:MONTHS",
		"[-1]/DAYS:during:MONTHS",
		"[1,3,5]/DAYS:during:WEEKS",
		"[2-4]/DAYS:during:WEEKS",
		"[1]/WEEKS:overlaps:MONTHS",
		"[1]/WEEKS.overlaps.MONTHS",
		"([1]/DAYS:during:WEEKS) + ([3]/DAYS:during:WEEKS)",
		"(DAYS:during:WEEKS) - ([1]/DAYS:during:WEEKS)",
		"([1]/DAYS:during:WEEKS):intersects:([1,2]/DAYS:during:WEEKS)",
		"[1]/MONTHS:during:YEARS",
		"Tuesdays",
		"[1]/Workweek",
		// End-relative selections over before/before-equals groupings:
		// counting from the end of the unbounded prefix is
		// window-independent (ForeachSelectEnd), unlike the flattened
		// groupings themselves. The paper's [n]/X:<:Y idiom.
		"[n]/DAYS:<:WEEKS",
		"[n]/DAYS:<=:WEEKS",
		"[-1]/DAYS:<:MONTHS",
		"[-2]/DAYS:<=:MONTHS",
		"[n]/DAYS.<.WEEKS",
		"[n]/WEEKS:<:MONTHS",
		"[n]/WEEKS:<=:MONTHS",
		"[n]/Tuesdays:<:MONTHS",
		"[n]/(([1]/DAYS:during:WEEKS):<=:MONTHS)",
		// A straight-line script is its expression: the name lowers exactly.
		"Mondays",
		"[n]/Mondays:during:MONTHS",
	}
	env, cat := testEnv(t)
	define(t, cat, "Tuesdays", "[2]/DAYS:during:WEEKS;", chronology.Day)
	define(t, cat, "Mondays", "{x = [1]/DAYS:during:WEEKS; return (x);}", chronology.Day)
	define(t, cat, "Workweek", "DAYS:during:WEEKS;", chronology.Day)
	rng := rand.New(rand.NewSource(59))
	const margin = 64
	for _, src := range shapes {
		e := expr(t, src)
		prepped, gran, err := plan.Prepare(env, e, nil)
		if err != nil {
			t.Fatalf("prepare %q: %v", src, err)
		}
		pat, ok := symbolic.Eval(env.Chron, cat, e, gran)
		if !ok {
			t.Fatalf("%q: no symbolic form", src)
		}
		// The raw and the prepared (inlined, factorized) forms must lower to
		// the same element list — vet analyzes one, the scheduler the other.
		ppat, pok := symbolic.Eval(env.Chron, cat, prepped, gran)
		if !pok || !periodic.SameList(pat, ppat) {
			t.Fatalf("%q: prepared form lowers differently (ok=%v)", src, pok)
		}
		for trial := 0; trial < 12; trial++ {
			lo := int64(rng.Intn(20000) - 5000)
			win := offWin(lo, lo+300+int64(rng.Intn(1500)))
			inner := offWin(lo+margin, chronology.OffsetFromTick(win.Hi)-margin)
			oracle, err := plan.EvaluateWindow(env, e, gran, win)
			if err != nil {
				t.Fatalf("evaluate %q: %v", src, err)
			}
			want := filterOverlapping(oracle.Flatten().Intervals(), inner)
			var got []interval.Interval
			if pat != nil {
				got = filterOverlapping(pat.Expand(inner), inner)
			}
			sameIntervals(t, got, want, src+" over "+win.String())
		}
	}
}

// Provable emptiness: the calculus returns nil with ok=true, and the
// materialized evaluation agrees on every window.
func TestSymbolicProvesEmptiness(t *testing.T) {
	empties := []string{
		"DAYS - DAYS",
		"MONTHS - DAYS",
		"(DAYS - DAYS):intersects:WEEKS",
		"WEEKS:intersects:(DAYS - DAYS)",
		"(DAYS - DAYS):during:WEEKS",
		"[1]/(DAYS - DAYS):during:WEEKS",
	}
	env, cat := testEnv(t)
	for _, src := range empties {
		e := expr(t, src)
		_, gran, err := plan.Prepare(env, e, nil)
		if err != nil {
			t.Fatalf("prepare %q: %v", src, err)
		}
		pat, ok := symbolic.Eval(env.Chron, cat, e, gran)
		if !ok {
			t.Fatalf("%q: no symbolic form", src)
		}
		if pat != nil {
			t.Fatalf("%q: not proven empty: %v", src, pat)
		}
		oracle, err := plan.EvaluateWindow(env, e, gran, offWin(0, 600))
		if err != nil {
			t.Fatalf("evaluate %q: %v", src, err)
		}
		// Away from the window's edges (where the materialized subtrahend is
		// incomplete) the oracle must agree the value is empty.
		if got := filterOverlapping(oracle.Flatten().Intervals(), offWin(64, 536)); len(got) != 0 {
			t.Fatalf("%q: oracle disagrees, got %v", src, got)
		}
	}
}

// Window-anchored and non-symbolic constructs must fall back, never
// misreport.
func TestSymbolicFallsBack(t *testing.T) {
	env, cat := testEnv(t)
	define(t, cat, "Boot", "x = DAYS; if (x) return (x); return (WEEKS);", chronology.Day)
	for _, src := range []string{
		"[2]/DAYS",                    // order-1 selection counts from the window edge
		"today",                       // runtime binding
		"today + DAYS",                // contaminated composition
		"1993/YEARS",                  // label selection: one finite unit
		"Boot",                        // branching derivation
		"HOLIDAYS",                    // stored calendar (not in catalog scripts)
		"interval(1, 7)",              // literal calendar
		"generate(DAYS, WEEKS, 1, 4)", // truncating surface call
		"DAYS:<:WEEKS",                // flattened before grouping: window-anchored prefix
		"DAYS.<=.MONTHS",              // same, relaxed
		"[1]/DAYS:<:WEEKS",            // front-anchored selection over an unbounded prefix
		"[2-4]/DAYS:<=:WEEKS",         // range with positive endpoints: front-anchored
	} {
		e := expr(t, src)
		if _, ok := symbolic.Eval(env.Chron, cat, e, chronology.Day); ok {
			t.Fatalf("%q: expected fallback", src)
		}
	}
}

// Cross-granularity equivalence keys: expressions denoting the same element
// list key identically, whatever granularity they are written at.
func TestKeys(t *testing.T) {
	env, cat := testEnv(t)
	ch := env.Chron
	keyOf := func(src string) string {
		t.Helper()
		e := expr(t, src)
		_, gran, err := plan.Prepare(env, e, nil)
		if err != nil {
			t.Fatalf("prepare %q: %v", src, err)
		}
		k, ok := symbolic.ListKey(ch, cat, e, gran)
		if !ok {
			t.Fatalf("%q: no list key", src)
		}
		return k
	}
	if a, b := keyOf("DAYS"), keyOf("DAYS:during:WEEKS"); a != b {
		t.Errorf("DAYS vs DAYS:during:WEEKS keys differ:\n%s\n%s", a, b)
	}
	if a, b := keyOf("DAYS"), keyOf("[1]/DAYS:during:WEEKS"); a == b {
		t.Errorf("DAYS vs Mondays keys should differ, both %s", a)
	}
	if k := keyOf("DAYS - DAYS"); k != symbolic.EmptyKey {
		t.Errorf("empty list key = %q, want %q", k, symbolic.EmptyKey)
	}

	fkeyOf := func(src string) string {
		t.Helper()
		e := expr(t, src)
		_, gran, err := plan.Prepare(env, e, nil)
		if err != nil {
			t.Fatalf("prepare %q: %v", src, err)
		}
		p, ok := symbolic.Eval(ch, cat, e, gran)
		if !ok {
			t.Fatalf("%q: no symbolic form", src)
		}
		k, ok := symbolic.FiringKey(ch, p, gran)
		if !ok {
			t.Fatalf("%q: no firing key", src)
		}
		return k
	}
	// A daily rule and a first-hour-of-day rule fire at the same instants.
	if a, b := fkeyOf("DAYS"), fkeyOf("[1]/HOURS:during:DAYS"); a != b {
		t.Errorf("daily vs first-hour firing keys differ:\n%s\n%s", a, b)
	}
	if a, b := fkeyOf("DAYS"), fkeyOf("[2]/HOURS:during:DAYS"); a == b {
		t.Errorf("daily vs second-hour firing keys should differ, both %s", a)
	}
}

// GroupCards must agree with the materialized group sizes.
func TestGroupCards(t *testing.T) {
	env, cat := testEnv(t)
	fe, ok := expr(t, "DAYS:during:MONTHS").(*callang.ForeachExpr)
	if !ok {
		t.Fatal("not a foreach")
	}
	min, max, ok := symbolic.GroupCards(env.Chron, cat, fe, chronology.Day)
	if !ok || min != 28 || max != 31 {
		t.Fatalf("days during months: got (%d, %d, %v), want (28, 31, true)", min, max, ok)
	}
}
