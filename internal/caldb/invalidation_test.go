package caldb

import (
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	calvet "calsys/internal/core/callang/vet"
	"calsys/internal/core/plan"
)

// uncachedEnv evaluates with the shared materialization cache bypassed, for
// ground-truth comparisons.
func (m *Manager) uncachedEnv() *plan.Env {
	return &plan.Env{Chron: m.chron, Cat: m, DisableSharing: true}
}

// Replacing a stored calendar must invalidate every cached materialization
// that depends on it: a warmed evaluation re-run after ReplaceStored has to
// reflect the new values, not the stale cache entry.
func TestCacheInvalidationOnReplaceStored(t *testing.T) {
	m := newManager(t)
	ls := lifespanFrom1985()
	// Jan 31 1993 (tick 2223) is a Sunday: removing it from weekdays is a
	// no-op, so the pre-replace result keeps all weekdays.
	hol, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{2223})
	if err := m.DefineStored("HOLIDAYS", hol, ls); err != nil {
		t.Fatal(err)
	}
	const expr = "([1,2,3,4,5]/DAYS:during:WEEKS) - HOLIDAYS"
	from, to := d(1993, 1, 1), d(1993, 1, 31)

	first, err := m.EvalExpr(expr, from, to)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := m.MatStats().Hits
	warm, err := m.EvalExpr(expr, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Equal(first) {
		t.Fatalf("warm re-evaluation diverged:\n%v\nvs\n%v", warm, first)
	}
	if m.MatStats().Hits == hitsBefore {
		t.Fatal("second evaluation did not hit the materialization cache")
	}

	// Move the holiday to Monday Jan 25 1993 (tick 2217); the weekday set
	// must now lose that day.
	hol2, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{2217})
	if err := m.ReplaceStored("HOLIDAYS", hol2); err != nil {
		t.Fatal(err)
	}
	after, err := m.EvalExpr(expr, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if after.Equal(first) {
		t.Fatal("evaluation after ReplaceStored returned the stale cached value")
	}
	truth, err := m.EvalExprEnv(m.uncachedEnv(), expr, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(truth) {
		t.Fatalf("post-replace cached evaluation = %v, want %v", after, truth)
	}
}

// Dropping and redefining a derived calendar must likewise invalidate its
// cached materializations.
func TestCacheInvalidationOnRedefineDerived(t *testing.T) {
	m := newManager(t)
	ls := lifespanFrom1985()
	if err := m.DefineDerived("PICKED", "{[1]/DAYS:during:WEEKS;}", ls, GranAuto); err != nil {
		t.Fatal(err)
	}
	from, to := d(1993, 1, 1), d(1993, 3, 31)
	mondays, err := m.EvalExpr("PICKED", from, to)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache, then swap the definition to Tuesdays.
	if _, err := m.EvalExpr("PICKED", from, to); err != nil {
		t.Fatal(err)
	}
	if err := m.Drop("PICKED"); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineDerived("PICKED", "{[2]/DAYS:during:WEEKS;}", ls, GranAuto); err != nil {
		t.Fatal(err)
	}
	after, err := m.EvalExpr("PICKED", from, to)
	if err != nil {
		t.Fatal(err)
	}
	if after.Equal(mondays) {
		t.Fatal("redefined calendar still evaluates to the stale cached value")
	}
	truth, err := m.EvalExprEnv(m.uncachedEnv(), "PICKED", from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(truth) {
		t.Fatalf("post-redefine evaluation = %v, want %v", after, truth)
	}
}

// Expressions reading `today` are volatile: two evaluations at different
// clock instants must see different values even at one catalog generation.
func TestVolatileTodayNeverCached(t *testing.T) {
	m := newManager(t)
	now := m.chron.EpochSecondsOf(d(1993, 1, 4))
	env := m.Env()
	env.Now = func() int64 { return now }
	from, to := d(1993, 1, 1), d(1993, 12, 31)
	first, err := m.EvalExprEnv(env, "today", from, to)
	if err != nil {
		t.Fatal(err)
	}
	now = m.chron.EpochSecondsOf(d(1993, 1, 5))
	second, err := m.EvalExprEnv(env, "today", from, to)
	if err != nil {
		t.Fatal(err)
	}
	if first.Equal(second) {
		t.Fatalf("`today` was served from cache across a clock change: %v", second)
	}
}

// TestClockReadAgreement holds the three answers to "does this calendar read
// the clock?" to one another: calvet's CV008, Manager.VolatileOf (what makes
// a calendar cacheable), and what the compiler actually emits — an OpToday
// op, or an empty-bodied while, reachable from the script through the
// OpDerived references the compiler itself resolves. Entries go in below
// DefineDerived so that reference cycles can exist.
func TestClockReadAgreement(t *testing.T) {
	m := newManager(t)
	hols, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{2223})
	if err := m.DefineStored("HOLS", hols, lifespanFrom1985()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, src string
		clock     bool
	}{
		{"NOW", "{today;}", true},
		{"MIXED", "ToDay:during:WEEKS", true},
		{"UPPER", "{x = TODAY; return (x);}", true},
		{"ARG", "caloperate(today, 2)", true},
		{"VIA_SINGLE", "NOW + ([1]/DAYS:during:WEEKS)", true},
		{"LATER", "{x = today:during:WEEKS; return (x);}", true},
		{"VIA_SCRIPT", "LATER:during:MONTHS", true},
		{"WAITS", "{t = [1]/DAYS:during:WEEKS; while (t:intersects:HOLS) ; return (t);}", true},
		{"WAITS_NESTED", "{if (HOLS) { while (HOLS) ; } return (DAYS);}", true},
		{"SHADOWED", "{NOW = DAYS:during:WEEKS; return (NOW);}", false},
		{"READ_THEN_SHADOWED", "{x = NOW; NOW = DAYS:during:WEEKS; return (x);}", true},
		{"CYC_A", "CYC_B:during:MONTHS", true},
		{"CYC_B", "CYC_A + today", true},
		{"LOOP_A", "LOOP_B:during:MONTHS", false},
		{"LOOP_B", "LOOP_A + DAYS", false},
		{"STEADY", "([1,2,3,4,5]/DAYS:during:WEEKS) - HOLS", false},
		{"HOLS", "", false},
	}
	for _, c := range cases {
		if c.src == "" {
			continue // the stored calendar, defined above
		}
		script, err := callang.ParseDerivation(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		e := &Entry{Name: c.name, Derivation: script.String(), Lifespan: lifespanFrom1985(), Gran: chronology.Day, script: script}
		if err := m.insert(e); err != nil {
			t.Fatal(err)
		}
	}

	// compiled reports what the compiler emits for name, resolving each
	// identifier exactly as plan.Compile does (no inlining, so every catalog
	// reference surfaces as an OpDerived to follow) under the temporaries
	// bound so far, as plan.RunScript would.
	win, _ := plan.CivilWindow(m.chron, chronology.Day, d(1993, 1, 1), d(1993, 3, 31))
	var compiled func(name string, seen map[string]bool) bool
	compiled = func(name string, seen map[string]bool) bool {
		script, ok := m.DerivationOf(name)
		if !ok || seen[name] {
			return false
		}
		seen[name] = true
		vars := map[string]bool{}
		var stmts func(ss []callang.Stmt) bool
		expr := func(x callang.Expr) bool {
			if _, isAlert := x.(*callang.StringLit); isAlert {
				return false
			}
			p, err := plan.Compile(m.Env(), x, vars, chronology.Day, win)
			if err != nil {
				t.Fatalf("%s: %s does not compile: %v", name, x, err)
			}
			clock := false
			for _, op := range p.Ops {
				clock = clock || op.Kind == plan.OpToday || op.Kind == plan.OpDerived && compiled(op.Name, seen)
			}
			return clock
		}
		stmts = func(ss []callang.Stmt) bool {
			clock := false
			for _, st := range ss {
				switch n := st.(type) {
				case *callang.AssignStmt:
					clock = expr(n.X) || clock
					vars[n.Name] = true
				case *callang.ReturnStmt:
					clock = expr(n.X) || clock
				case *callang.ExprStmt:
					clock = expr(n.X) || clock
				case *callang.IfStmt:
					clock = expr(n.Cond) || clock
					clock = stmts(n.Then) || clock
					clock = stmts(n.Else) || clock
				case *callang.WhileStmt:
					clock = expr(n.Cond) || len(n.Body) == 0 || clock
					clock = stmts(n.Body) || clock
				}
			}
			return clock
		}
		return stmts(script.Stmts)
	}

	for _, c := range cases {
		diags, err := m.VetDefined(c.name)
		if err != nil {
			t.Fatal(err)
		}
		cv008 := false
		for _, dg := range diags {
			cv008 = cv008 || dg.Code == calvet.CodeVolatile
		}
		volatile, emitted := m.VolatileOf(c.name), compiled(c.name, map[string]bool{})
		if cv008 != c.clock || volatile != c.clock || emitted != c.clock {
			t.Errorf("%s = %s: CV008 %v, VolatileOf %v, compiled clock read %v; want all %v",
				c.name, c.src, cv008, volatile, emitted, c.clock)
		}
	}
}
