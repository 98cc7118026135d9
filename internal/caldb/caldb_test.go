package caldb

import (
	"strings"
	"sync"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/callang/symbolic"
	"calsys/internal/core/plan"
	"calsys/internal/store"
)

func d(y, m, day int) chronology.Civil { return chronology.Civil{Year: y, Month: m, Day: day} }

func newManager(t testing.TB) *Manager {
	t.Helper()
	m, err := New(store.NewDB(), chronology.MustNew(chronology.DefaultEpoch))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func lifespanFrom1985() Lifespan {
	// Day ticks relative to the 1987 epoch: 1985-01-01 is tick -730.
	return Lifespan{Lo: -730, Hi: MaxDayTick}
}

// Figure 1: the Tuesdays tuple with derivation [2]/DAYS:during:WEEKS,
// lifespan (1985, ∞), granularity DAYS.
func TestFigure1CatalogRow(t *testing.T) {
	m := newManager(t)
	if err := m.DefineDerived("Tuesdays", "{[2]/DAYS:during:WEEKS;}", lifespanFrom1985(), GranAuto); err != nil {
		t.Fatal(err)
	}
	e, ok := m.Lookup("Tuesdays")
	if !ok {
		t.Fatal("Tuesdays not in catalog")
	}
	if e.Gran != chronology.Day {
		t.Errorf("granularity = %v, want DAYS", e.Gran)
	}
	if !e.Lifespan.Unbounded() {
		t.Errorf("lifespan = %v, want unbounded", e.Lifespan)
	}
	if !strings.Contains(e.EvalPlan, "GENERATE DAYS") || !strings.Contains(e.EvalPlan, "SELECT [2]") {
		t.Errorf("eval plan:\n%s", e.EvalPlan)
	}
	row, err := m.FigureRow("Tuesdays")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Tuesdays", "[2]/(DAYS:during:WEEKS)", "(-730,∞)", "DAYS"} {
		if !strings.Contains(row, want) {
			t.Errorf("figure row missing %q:\n%s", want, row)
		}
	}
	// And it evaluates: Tuesdays of January 1993 are the 2190+7k ticks.
	cal, err := m.EvalExpr("Tuesdays", d(1993, 1, 1), d(1993, 1, 31))
	if err != nil {
		t.Fatal(err)
	}
	if cal.Flatten().String() != "{(2190,2190),(2197,2197),(2204,2204),(2211,2211),(2218,2218)}" {
		t.Errorf("Tuesdays = %v", cal)
	}
	// The catalog row survives a round trip through the store.
	if err := m.reload(); err != nil {
		t.Fatal(err)
	}
	e2, ok := m.Lookup("tuesdays") // case-insensitive
	if !ok || e2.Derivation != e.Derivation || e2.Gran != e.Gran {
		t.Errorf("reloaded entry differs: %+v", e2)
	}
}

func TestStoredCalendarLifecycle(t *testing.T) {
	m := newManager(t)
	hol, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{31, 90})
	if err := m.DefineStored("HOLIDAYS", hol, Lifespan{Lo: 1, Hi: 365}); err != nil {
		t.Fatal(err)
	}
	got, ok := m.StoredCalendar("HOLIDAYS")
	if !ok || got.String() != "{(31,31),(90,90)}" {
		t.Errorf("stored = %v, %v", got, ok)
	}
	if g, ok := m.ElemKindOf("HOLIDAYS"); !ok || g != chronology.Day {
		t.Errorf("kind = %v, %v", g, ok)
	}
	// Replace values (new year's holiday list).
	hol2, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{31, 90, 359})
	if err := m.ReplaceStored("HOLIDAYS", hol2); err != nil {
		t.Fatal(err)
	}
	got, _ = m.StoredCalendar("HOLIDAYS")
	if got.Len() != 3 {
		t.Errorf("after replace: %v", got)
	}
	if err := m.reload(); err != nil {
		t.Fatal(err)
	}
	got, _ = m.StoredCalendar("HOLIDAYS")
	if got.Len() != 3 {
		t.Errorf("after reload: %v", got)
	}
	// Drop.
	if err := m.Drop("HOLIDAYS"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.StoredCalendar("HOLIDAYS"); ok {
		t.Error("dropped calendar still resolves")
	}
	if err := m.Drop("HOLIDAYS"); err == nil {
		t.Error("double drop should fail")
	}
	if err := m.ReplaceStored("HOLIDAYS", hol); err == nil {
		t.Error("replace after drop should fail")
	}
}

func TestDefineValidation(t *testing.T) {
	m := newManager(t)
	ls := lifespanFrom1985()
	cases := []struct {
		name string
		fn   func() error
	}{
		{"empty name", func() error { return m.DefineDerived("", "DAYS;", ls, GranAuto) }},
		{"shadow basic", func() error { return m.DefineDerived("WEEKS", "DAYS;", ls, GranAuto) }},
		{"reserved today", func() error { return m.DefineDerived("today", "DAYS;", ls, GranAuto) }},
		{"parse error", func() error { return m.DefineDerived("X", "[0]/DAYS;", ls, GranAuto) }},
		{"unknown ref", func() error { return m.DefineDerived("X", "NO_SUCH;", ls, GranAuto) }},
		{"bad lifespan", func() error { return m.DefineDerived("X", "DAYS;", Lifespan{Lo: 5, Hi: 1}, GranAuto) }},
		{"zero lifespan", func() error { return m.DefineDerived("X", "DAYS;", Lifespan{}, GranAuto) }},
		{"nil stored", func() error { return m.DefineStored("X", nil, ls) }},
	}
	for _, tc := range cases {
		if err := tc.fn(); err == nil {
			t.Errorf("%s: should fail", tc.name)
		}
	}
	if err := m.DefineDerived("Mondays", "[1]/DAYS:during:WEEKS;", ls, GranAuto); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineDerived("Mondays", "[1]/DAYS:during:WEEKS;", ls, GranAuto); err == nil {
		t.Error("duplicate definition should fail")
	}
}

func TestDerivedChainThroughCatalog(t *testing.T) {
	m := newManager(t)
	ls := lifespanFrom1985()
	if err := m.DefineDerived("Mondays", "[1]/DAYS:during:WEEKS;", ls, GranAuto); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineDerived("Januarys", "[1]/MONTHS:during:YEARS;", ls, GranAuto); err != nil {
		t.Fatal(err)
	}
	// Granularity inference through the chain: Mondays has kind DAYS,
	// Januarys kind MONTHS.
	if g, _ := m.ElemKindOf("Mondays"); g != chronology.Day {
		t.Errorf("Mondays kind = %v", g)
	}
	if g, _ := m.ElemKindOf("Januarys"); g != chronology.Month {
		t.Errorf("Januarys kind = %v", g)
	}
	cal, err := m.EvalExpr("Mondays:during:Januarys:during:1993/YEARS", d(1987, 1, 1), d(1994, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	if cal.Flatten().String() != "{(2196,2196),(2203,2203),(2210,2210),(2217,2217)}" {
		t.Errorf("Mondays during January 1993 = %v", cal)
	}
}

func TestMultiStatementDerivation(t *testing.T) {
	m := newManager(t)
	ls := lifespanFrom1985()
	hol, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{2223}) // Jan 31 1993
	if err := m.DefineStored("HOLIDAYS", hol, ls); err != nil {
		t.Fatal(err)
	}
	weekdays := "{WD = [1,2,3,4,5]/DAYS:during:WEEKS; return (WD - HOLIDAYS);}"
	if err := m.DefineDerived("BUSINESS_DAYS", weekdays, ls, chronology.Day); err != nil {
		t.Fatal(err)
	}
	e, _ := m.Lookup("BUSINESS_DAYS")
	if !strings.HasPrefix(e.EvalPlan, "SCRIPT") {
		t.Errorf("multi-statement eval plan = %q", e.EvalPlan)
	}
	// The set difference in the script coalesces adjacent weekdays into
	// Mon-Fri runs, so clip with strict overlaps rather than during.
	cal, err := m.EvalExpr("BUSINESS_DAYS:overlaps:interval(2217, 2226)", d(1993, 1, 1), d(1993, 2, 28))
	if err != nil {
		t.Fatal(err)
	}
	// Jan 25..Feb 3 1993 range (2217..2226): weekdays minus the Jan 31
	// holiday (a Sunday, so no effect): Mon 25..Fri 29 = 2217..2221, Mon
	// Feb 1..Wed Feb 3 = 2224..2226.
	if cal.Flatten().ToSet().String() != "{(2217,2221),(2224,2226)}" {
		t.Errorf("business days = %v", cal.Flatten().ToSet())
	}
}

func TestRunScriptThroughCatalog(t *testing.T) {
	m := newManager(t)
	run := func(src string) (plan.Value, error) {
		s, err := callang.ParseScript(src)
		if err != nil {
			return plan.Value{}, err
		}
		return plan.RunScript(m.Env(), s, d(1993, 1, 1), d(1993, 3, 31))
	}
	v, err := run("{return ([n]/DAYS:during:MONTHS);}")
	if err != nil {
		t.Fatal(err)
	}
	// Month ends of Jan-Mar 1993 in 1987-epoch ticks: 2223, 2251, 2282.
	if v.Cal.String() != "{(2223,2223),(2251,2251),(2282,2282)}" {
		t.Errorf("month ends = %v", v.Cal)
	}
	if _, err := run("{oops;"); err == nil {
		t.Error("parse error should surface")
	}
	if _, err := m.EvalExpr("]bad[", d(1993, 1, 1), d(1993, 1, 2)); err == nil {
		t.Error("expression parse error should surface")
	}
}

func TestNames(t *testing.T) {
	m := newManager(t)
	ls := lifespanFrom1985()
	_ = m.DefineDerived("A1", "DAYS:during:MONTHS;", ls, GranAuto)
	_ = m.DefineDerived("B2", "DAYS:during:WEEKS;", ls, GranAuto)
	names := m.Names()
	if len(names) != 2 {
		t.Errorf("Names = %v", names)
	}
}

// The lifespan column of Figure 1 is enforced: stored values are clipped to
// the lifespan, and a derived calendar describes no time points outside it.
func TestLifespanEnforcement(t *testing.T) {
	m := newManager(t)
	// A holiday list valid only for 1987 (day ticks 1..365), with a stray
	// value outside it.
	hol, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{31, 90, 400})
	if err := m.DefineStored("HOLIDAYS87", hol, Lifespan{Lo: 1, Hi: 365}); err != nil {
		t.Fatal(err)
	}
	got, err := m.EvalExpr("HOLIDAYS87:intersects:(DAYS:during:interval(1, 500))", d(1987, 1, 1), d(1988, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	// Day 400 lies outside the lifespan and must not appear.
	if got.String() != "{(31,31),(90,90)}" {
		t.Errorf("clipped holidays = %v", got)
	}

	// A derived calendar defined only for 1987: evaluating 1988 yields
	// nothing.
	if err := m.DefineDerived("EOM87", "[n]/DAYS:during:MONTHS", Lifespan{Lo: 1, Hi: 365}, GranAuto); err != nil {
		t.Fatal(err)
	}
	// Force the opaque (script) path by defining through a two-statement
	// derivation as well.
	if err := m.DefineDerived("EOM87S", "{x = [n]/DAYS:during:MONTHS; return (x);}",
		Lifespan{Lo: 1, Hi: 365}, chronology.Day); err != nil {
		t.Fatal(err)
	}
	in87, err := m.EvalExpr("EOM87S", d(1987, 1, 1), d(1987, 3, 31))
	if err != nil {
		t.Fatal(err)
	}
	if in87.Flatten().Len() != 3 {
		t.Errorf("month ends within lifespan = %v", in87.Flatten())
	}
	in88, err := m.EvalExpr("EOM87S", d(1988, 1, 1), d(1988, 3, 31))
	if err != nil {
		t.Fatal(err)
	}
	if !in88.IsEmpty() {
		t.Errorf("evaluation outside lifespan = %v, want empty", in88)
	}
	if lo, hi, ok := m.LifespanOf("EOM87S"); !ok || lo != 1 || hi != 365 {
		t.Errorf("LifespanOf = %d,%d,%v", lo, hi, ok)
	}
	if _, _, ok := m.LifespanOf("missing"); ok {
		t.Error("missing calendar should have no lifespan")
	}
}

// A single-expression derivation with a bounded lifespan is evaluated
// opaquely so the lifespan still clips it.
func TestBoundedLifespanBlocksInlining(t *testing.T) {
	m := newManager(t)
	if err := m.DefineDerived("EOM87X", "[n]/DAYS:during:MONTHS", Lifespan{Lo: 1, Hi: 365}, GranAuto); err != nil {
		t.Fatal(err)
	}
	in88, err := m.EvalExpr("EOM87X", d(1988, 1, 1), d(1988, 3, 31))
	if err != nil {
		t.Fatal(err)
	}
	if !in88.IsEmpty() {
		t.Errorf("single-expression derivation escaped its lifespan: %v", in88)
	}
	in87, err := m.EvalExpr("EOM87X", d(1987, 1, 1), d(1987, 2, 28))
	if err != nil {
		t.Fatal(err)
	}
	if in87.Flatten().Len() != 2 {
		t.Errorf("within lifespan = %v", in87.Flatten())
	}
}

// Periodic compression reaches catalog evaluation end to end: the generates
// behind a derived calendar are answered by the process-wide memo of basic
// calendar patterns, re-evaluation over a distant window reuses them, and the
// results match a cacheless environment, which generates every window
// directly (calendar.GenerateFull, the definition).
func TestPeriodicCompressionThroughCatalog(t *testing.T) {
	m := newManager(t)
	if err := m.DefineDerived("Paydays", "{[n]/DAYS:during:MONTHS;}", lifespanFrom1985(), GranAuto); err != nil {
		t.Fatal(err)
	}
	before := symbolic.Stats()
	got, err := m.EvalExpr("Paydays", d(1990, 1, 1), d(1999, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	if after := symbolic.Stats(); after.Hits+after.Misses == before.Hits+before.Misses {
		t.Fatalf("catalog evaluation read no basic-calendar pattern: before %+v, after %+v", before, after)
	}
	envOff := m.Env()
	envOff.Mat = nil
	want, err := m.EvalExprEnv(envOff, "Paydays", d(1990, 1, 1), d(1999, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Flatten().ToSet().Equal(want.Flatten().ToSet()) {
		t.Fatalf("periodic catalog evaluation diverges:\n periodic     %v\n materialized %v",
			got.Flatten(), want.Flatten())
	}
	// A distant window is served from the same all-time patterns: memo hits,
	// and nothing lowered again.
	mid := symbolic.Stats()
	later, err := m.EvalExpr("Paydays", d(2005, 1, 1), d(2005, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	if later.Flatten().Len() != 12 {
		t.Fatalf("2005 Paydays = %v, want 12 month-ends", later.Flatten())
	}
	end := symbolic.Stats()
	if end.Hits <= mid.Hits {
		t.Errorf("re-evaluation did not hit the memoized patterns: %+v -> %+v", mid, end)
	}
	if end.Misses != mid.Misses {
		t.Errorf("re-evaluation lowered a pattern again: %+v -> %+v", mid, end)
	}
}

// A snapshot restored with a CALENDARS table of the wrong shape must be
// rejected when the manager attaches, not panic while decoding rows.
func TestNewRejectsIncompatibleCatalogTable(t *testing.T) {
	chron := chronology.MustNew(chronology.DefaultEpoch)

	db := store.NewDB()
	short, err := store.NewSchema(
		store.Column{Name: "name", Type: store.TText},
		store.Column{Name: "granularity", Type: store.TText},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(TableName, short); err != nil {
		t.Fatal(err)
	}
	if _, err := New(db, chron); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("short CALENDARS schema: err = %v, want column-count rejection", err)
	}

	db = store.NewDB()
	wrongType, err := store.NewSchema(
		store.Column{Name: "name", Type: store.TText},
		store.Column{Name: "derivation_script", Type: store.TText},
		store.Column{Name: "eval_plan", Type: store.TText},
		store.Column{Name: "lifespan", Type: store.TInt}, // should be TInterval
		store.Column{Name: "granularity", Type: store.TText},
		store.Column{Name: "calvalues", Type: store.TCalendar},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(TableName, wrongType); err != nil {
		t.Fatal(err)
	}
	if _, err := New(db, chron); err == nil || !strings.Contains(err.Error(), "lifespan") {
		t.Fatalf("wrong lifespan type: err = %v, want type rejection naming the column", err)
	}
}

// Corrupt catalog rows surface positioned errors (row id + what was wrong)
// when a fresh manager attaches over the restored database.
func TestReloadPositionsCorruptRowErrors(t *testing.T) {
	m := newManager(t)
	if err := m.DefineDerived("Tuesdays", "{[2]/DAYS:during:WEEKS;}", lifespanFrom1985(), GranAuto); err != nil {
		t.Fatal(err)
	}
	db := m.DB()
	tab, _ := db.Table(TableName)
	rids, err := tab.LookupEq("name", store.NewText("Tuesdays"))
	if err != nil || len(rids) != 1 {
		t.Fatalf("catalog row lookup: rids=%v err=%v", rids, err)
	}
	mangle := func(col int, v store.Value) {
		t.Helper()
		row, _ := tab.Get(rids[0])
		bad := row.Clone()
		bad[col] = v
		if err := db.RunTxn(func(tx *store.Txn) error {
			return tx.Replace(TableName, rids[0], bad)
		}); err != nil {
			t.Fatal(err)
		}
	}

	mangle(4, store.NewText("martian"))
	_, err = New(db, m.Chron())
	if err == nil || !strings.Contains(err.Error(), "CALENDARS row") ||
		!strings.Contains(err.Error(), "bad granularity") {
		t.Fatalf("mangled granularity: err = %v, want positioned granularity error", err)
	}

	mangle(4, store.NewText("DAYS"))
	mangle(1, store.NewText("{[2]/DAYS:during:"))
	_, err = New(db, m.Chron())
	if err == nil || !strings.Contains(err.Error(), "bad derivation script") {
		t.Fatalf("mangled derivation: err = %v, want derivation error", err)
	}

	mangle(1, store.NewText(""))
	mangle(0, store.NewText("  "))
	_, err = New(db, m.Chron())
	if err == nil || !strings.Contains(err.Error(), "empty name") {
		t.Fatalf("blank name: err = %v, want empty-name error", err)
	}
}

// A calendar's value must not depend on how its derivation is spelled: one
// expression and the same expression behind a temporary are the same
// calendar, under a lifespan bounded on either side (both stay opaque and
// clipped) and under the open default (both inline, neither is clipped).
func TestLifespanSpellingIndependence(t *testing.T) {
	m := newManager(t)
	define := func(name, src string, ls Lifespan) {
		t.Helper()
		if err := m.DefineDerived(name, src, ls, GranAuto); err != nil {
			t.Fatal(err)
		}
	}
	eval := func(src string, from, to chronology.Civil) string {
		t.Helper()
		c, err := m.EvalExpr(src, from, to)
		if err != nil {
			t.Fatal(err)
		}
		return c.Flatten().String()
	}
	// Bounded below only (1988 on): nothing in early 1987, on either spelling.
	from1988 := Lifespan{Lo: 366, Hi: MaxDayTick}
	define("EOMA", "[n]/DAYS:during:MONTHS", from1988)
	define("EOMAS", "{x = [n]/DAYS:during:MONTHS; return (x);}", from1988)
	for _, name := range []string{"EOMA", "EOMAS"} {
		if got := eval(name, d(1987, 1, 1), d(1987, 3, 31)); got != "{}" {
			t.Errorf("%s before its lifespan = %s, want {}", name, got)
		}
		if got := eval(name, d(1988, 1, 1), d(1988, 3, 31)); got != "{(396,396),(425,425),(456,456)}" {
			t.Errorf("%s inside its lifespan = %s", name, got)
		}
		if _, ok := callang.InlineBody(m, name); ok {
			t.Errorf("%s has a bounded lifespan and must stay opaque", name)
		}
	}
	// The open lifespan (1, ∞) clips nothing, before the epoch included.
	open := Lifespan{Lo: 1, Hi: MaxDayTick}
	define("WD", "[1,2,3,4,5]/DAYS:during:WEEKS", open)
	define("WDS", "{x = [1,2,3,4,5]/DAYS:during:WEEKS; return (x);}", open)
	hol, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{-20, 31})
	if err := m.DefineStored("HOL", hol, open); err != nil {
		t.Fatal(err)
	}
	want := eval("[1,2,3,4,5]/DAYS:during:WEEKS", d(1986, 1, 1), d(1986, 1, 31))
	for _, name := range []string{"WD", "WDS"} {
		if got := eval(name, d(1986, 1, 1), d(1986, 1, 31)); got != want || strings.Count(got, "(") != 25 {
			t.Errorf("%s over January 1986 = %s, want the expression's 25 leaves %s", name, got, want)
		}
		if _, ok := callang.InlineBody(m, name); !ok {
			t.Errorf("%s has the open lifespan and must inline", name)
		}
	}
	if got := eval("HOL", d(1986, 1, 1), d(1987, 12, 31)); got != "{(-20,-20),(31,31)}" {
		t.Errorf("stored values under the open lifespan = %s, want both", got)
	}
}

// Two racing replaces of one stored calendar must leave the served entry and
// the CALENDARS row (what a snapshot persists) holding the same value: the
// row and the entry change in one transaction. The window this pins is a few
// instructions wide, hence the rounds.
func TestConcurrentReplaceKeepsCacheAndRow(t *testing.T) {
	m := newManager(t)
	a, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{31})
	b, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{90})
	if err := m.DefineStored("HOLS", a, lifespanFrom1985()); err != nil {
		t.Fatal(err)
	}
	tab, _ := m.db.Table(TableName)
	const rounds = 200_000
	diverged := 0
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for _, v := range []*calendar.Calendar{a, b} {
			wg.Add(1)
			go func(v *calendar.Calendar) {
				defer wg.Done()
				if err := m.ReplaceStored("HOLS", v); err != nil {
					t.Error(err)
				}
			}(v)
		}
		wg.Wait()
		served, _ := m.StoredCalendar("HOLS")
		rids, err := tab.LookupEq("name", store.NewText("HOLS"))
		if err != nil || len(rids) != 1 {
			t.Fatalf("round %d: row lookup %v, %v", round, rids, err)
		}
		if row, _ := tab.Get(rids[0]); row[5].Cal != served {
			diverged++
		}
	}
	if diverged > 0 {
		t.Fatalf("%d of %d rounds left the served entry and the catalog row holding different values", diverged, rounds)
	}
}
