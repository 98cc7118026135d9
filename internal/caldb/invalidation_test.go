package caldb

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
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

// clockCases are derivations that read the clock, or seem to, through every
// way the language has to hide a read: shadowing, cycles, waits, branches.
var clockCases = []struct {
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

// clockCatalog holds the stored HOLS and every clockCases derivation. Entries
// go in below DefineDerived so that reference cycles can exist.
func clockCatalog(t *testing.T) *Manager {
	m := newManager(t)
	hols, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{2223})
	if err := m.DefineStored("HOLS", hols, lifespanFrom1985()); err != nil {
		t.Fatal(err)
	}
	for _, c := range clockCases {
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
	return m
}

// compiledReads reports what the compiler emits for name: every statement's
// expression, with the temporaries assigned before it substituted as
// plan.RunScript substitutes them, compiled exactly as plan.Compile does (no
// inlining, so every catalog reference surfaces as an OpDerived to follow):
// whether an OpToday op, or an empty-bodied while, is reachable, and every
// catalog name resolved to OpLoad or OpDerived on the way (lower-cased).
func compiledReads(t *testing.T, m *Manager, name string) (clock bool, reads map[string]bool) {
	win, _ := plan.CivilWindow(m.chron, chronology.Day, d(1993, 1, 1), d(1993, 3, 31))
	reads = map[string]bool{}
	seen := map[string]bool{}
	var compiled func(name string) bool
	compiled = func(name string) bool {
		script, ok := m.DerivationOf(name)
		if !ok || seen[name] {
			return false
		}
		seen[name] = true
		temps := callang.Subst{}
		var stmts func(ss []callang.Stmt) bool
		expr := func(x callang.Expr) bool {
			if _, isAlert := x.(*callang.StringLit); isAlert {
				return false
			}
			x, err := temps.Apply(x)
			if err != nil {
				t.Fatal(err)
			}
			p, err := plan.Compile(m.Env(), x, nil, chronology.Day, win)
			if err != nil {
				t.Fatalf("%s: %s does not compile: %v", name, x, err)
			}
			clock := false
			for _, op := range p.Ops {
				if op.Kind == plan.OpLoad || op.Kind == plan.OpDerived {
					reads[strings.ToLower(op.Name)] = true
				}
				if op.Kind == plan.OpToday || op.Kind == plan.OpDerived && compiled(op.Name) {
					clock = true
				}
			}
			return clock
		}
		stmts = func(ss []callang.Stmt) bool {
			clock := false
			for _, st := range ss {
				switch n := st.(type) {
				case *callang.AssignStmt:
					clock = expr(n.X) || clock
					temps[n.Name], _ = temps.Apply(n.X)
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
	return compiled(name), reads
}

// TestClockReadAgreement holds the three answers to "does this calendar read
// the clock?" to one another: calvet's CV008, Manager.VolatileOf (what makes
// a calendar cacheable), and what the compiler actually emits (compiledReads).
func TestClockReadAgreement(t *testing.T) {
	m := clockCatalog(t)
	for _, c := range clockCases {
		diags, err := m.VetDefined(c.name)
		if err != nil {
			t.Fatal(err)
		}
		cv008 := false
		for _, dg := range diags {
			cv008 = cv008 || dg.Code == calvet.CodeVolatile
		}
		emitted, _ := compiledReads(t, m, c.name)
		if volatile := m.VolatileOf(c.name); cv008 != c.clock || volatile != c.clock || emitted != c.clock {
			t.Errorf("%s = %s: CV008 %v, VolatileOf %v, compiled clock read %v; want all %v",
				c.name, c.src, cv008, volatile, emitted, c.clock)
		}
	}
}

// TestDependenciesCoverCompiledReads holds the dependency walk behind every
// stamp to the compiler: for each clockCases calendar, every catalog name its
// compiled plans load or derive, transitively, is one of its dependencies, so
// a write to that name moves the calendar's stamps.
func TestDependenciesCoverCompiledReads(t *testing.T) {
	m := clockCatalog(t)
	total := 0
	for _, c := range clockCases {
		m.mu.RLock()
		deps := m.depsLocked([]string{strings.ToLower(c.name)})
		m.mu.RUnlock()
		_, reads := compiledReads(t, m, c.name)
		total += len(reads)
		for name := range reads {
			if !slices.Contains(deps, name) {
				t.Errorf("%s = %s: the compiler reads %s, the dependencies %v do not", c.name, c.src, name, deps)
			}
		}
	}
	if total == 0 {
		t.Fatal("no case compiled to a catalog read")
	}
}

// Writing a stored calendar back to content it held before returns its
// content key, and every dependant's, to the earlier value; other content
// gives another key. The generation witness only grows.
func TestContentKeyReturnsWithContent(t *testing.T) {
	m := newManager(t)
	a, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{2217, 2223})
	b, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{2217, 2224})
	if err := m.DefineStored("HOLS", a, lifespanFrom1985()); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineDerived("BIZ", "([1,2,3,4,5]/DAYS:during:WEEKS) - HOLS", lifespanFrom1985(), GranAuto); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"HOLS", "BIZ"} {
		keyA, genA := m.ValuesStamp(name)
		if err := m.ReplaceStored("HOLS", b); err != nil {
			t.Fatal(err)
		}
		keyB, genB := m.ValuesStamp(name)
		if err := m.ReplaceStored("HOLS", a); err != nil {
			t.Fatal(err)
		}
		keyA2, genA2 := m.ValuesStamp(name)
		if keyB == keyA {
			t.Errorf("%s: another holiday list kept the key %#x", name, keyA)
		}
		if keyA2 != keyA {
			t.Errorf("%s: A→B→A key %#x, want the first %#x", name, keyA2, keyA)
		}
		if !(genA < genB && genB < genA2) {
			t.Errorf("%s: witnesses %d, %d, %d do not grow", name, genA, genB, genA2)
		}
	}
}

// The A→B→A race (run under -race): writers cycle the holidays between two
// lists while readers query every churnSources dependant. An evaluation that
// straddles a write reads both lists, and its key is current again two
// writes later, so it must not be filed. Once the writers stop, each list is
// set in turn and every source must answer exactly like the uncached path.
func TestContentKeyABARace(t *testing.T) {
	m := newManager(t)
	ls := lifespanFrom1985()
	lists := [2]*calendar.Calendar{}
	for i, ticks := range [][]chronology.Tick{{2193, 2200, 2207, 2214}, {2196, 2203, 2210, 2217}} {
		lists[i], _ = calendar.FromPoints(chronology.Day, ticks)
	}
	if err := m.DefineStored("HOLS", lists[0], ls); err != nil {
		t.Fatal(err)
	}
	for _, def := range churnDefs {
		if err := m.DefineDerived(def.name, def.srcs[len(def.srcs)-1], ls, GranAuto); err != nil {
			t.Fatal(err)
		}
	}
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
					_, _ = m.EvalExpr(churnSources[rng.Intn(len(churnSources))], from, to)
				}
			}(r)
		}
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				if err := m.ReplaceStored("HOLS", lists[i%2]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		writers.Wait()
		close(stop)
		readers.Wait()
		for _, list := range lists {
			if err := m.ReplaceStored("HOLS", list); err != nil {
				t.Fatal(err)
			}
			for _, src := range churnSources {
				checkAgainstUncached(t, m, src, from, to, now)
			}
		}
	}
}
