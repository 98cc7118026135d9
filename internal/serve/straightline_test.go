package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/plan"
)

// slGen generates straight-line scripts over the operands of the plan
// package's 400-expression generator (genLeaf and dayLeaf there) and the
// tenant's stored HOLIDAYS. It is typed — flat day sets, basic units,
// order-2 groupings — so that what it writes evaluates: a disagreement is
// then never two different type errors.
type slGen struct {
	rng   *rand.Rand
	temps []*slTemp
}

type slTemp struct {
	name  string
	group bool // an order-2 grouping; else a flat day set
	read  bool
}

func (g *slGen) pick(ss ...string) string { return ss[g.rng.Intn(len(ss))] }

// temp returns an assigned temporary of the wanted shape, marking it read.
func (g *slGen) temp(group bool) (string, bool) {
	var fit []*slTemp
	for _, t := range g.temps {
		if t.group == group {
			fit = append(fit, t)
		}
	}
	if len(fit) == 0 || g.rng.Intn(3) == 0 {
		return "", false
	}
	t := fit[g.rng.Intn(len(fit))]
	t.read = true
	return t.name, true
}

// assigned reports whether the script so far assigns name.
func (g *slGen) assigned(name string) bool {
	for _, t := range g.temps {
		if t.name == name {
			return true
		}
	}
	return false
}

func (g *slGen) unit() string {
	return g.pick("WEEKS", "MONTHS", "YEARS")
}

// flat writes a flat day set. A positional selection picks only from a
// grouping: from an order-1 list it counts from the window's edge, by
// definition, and no two windows agree on it.
func (g *slGen) flat(depth int) string {
	if name, ok := g.temp(false); ok {
		return name
	}
	if depth > 0 {
		switch g.rng.Intn(5) {
		case 0, 3:
			return fmt.Sprintf("(%s) %s (%s)", g.flat(depth-1), g.pick("+", "+", "-"), g.flat(depth-1))
		case 1:
			return fmt.Sprintf("(%s):intersects:(%s)", g.flat(depth-1), g.flat(depth-1))
		case 2:
			return fmt.Sprintf("%s/(%s)", g.pick("[1]", "[2]", "[n]", "[-1]"), g.group(depth-1))
		}
	}
	if g.rng.Intn(2) == 0 {
		return g.pick("HOLIDAYS", "points(31, 59, 90, DAYS)", "points(10, 20, 30, DAYS)", "interval(40, 70, DAYS)")
	}
	return g.pick("[2]/DAYS:during:WEEKS", "[n]/DAYS:during:MONTHS")
}

func (g *slGen) group(depth int) string {
	if name, ok := g.temp(true); ok {
		return name
	}
	x := "DAYS"
	if g.rng.Intn(2) == 0 {
		x = "(" + g.flat(depth) + ")"
	}
	return fmt.Sprintf("%s:%s:%s", x, g.pick("during", "overlaps"), g.unit())
}

// script writes 1–4 assignments and a return that reads whatever is still
// unread. Temporaries are reused, reassigned from their own value, and named
// like the stored catalog calendar and like a basic calendar; both then
// shadow it from the assignment on.
func (g *slGen) script() string {
	var b strings.Builder
	b.WriteString("{")
	for i, n := 0, 1+g.rng.Intn(4); i < n; i++ {
		name := g.pick("a", "b", "wd", "HOLIDAYS", "DAYS")
		var prev *slTemp
		for _, t := range g.temps {
			if t.name == name {
				prev = t
			}
		}
		switch {
		case prev != nil && !prev.group: // x = x op …: reads the previous value
			fmt.Fprintf(&b, " %s = (%s) %s (%s);", name, name, g.pick("+", "+", "-"), g.flat(1))
			prev.read = false
		case prev != nil:
			i--
		case g.rng.Intn(3) == 0 && name != "DAYS" && name != "HOLIDAYS":
			fmt.Fprintf(&b, " %s = %s;", name, g.group(1))
			g.temps = append(g.temps, &slTemp{name: name, group: true})
		default:
			fmt.Fprintf(&b, " %s = %s;", name, g.flat(2))
			g.temps = append(g.temps, &slTemp{name: name})
		}
	}
	ret := g.flat(1)
	for _, t := range g.temps {
		switch {
		case t.read:
		case t.group:
			ret = fmt.Sprintf("(%s) + ([1]/%s)", ret, t.name)
		default:
			ret = fmt.Sprintf("(%s) %s %s", ret, g.pick("+", "+", "-"), t.name)
		}
	}
	fmt.Fprintf(&b, " return (%s);}", ret)
	return b.String()
}

// refused turns a generated script into one that stays a script, and says
// whether evaluating it yields an alert: a branch, on a condition no window
// changes — a literal, true or false, or the stored HOLIDAYS — or an alert
// return.
func (g *slGen) refused(src string) (string, bool) {
	body := strings.TrimSuffix(strings.TrimPrefix(src, "{"), "}")
	ret := body[strings.LastIndex(body, " return ("):]
	head := strings.TrimSuffix(body, ret)
	if g.rng.Intn(3) == 0 {
		return "{" + head + ` return ("ALERT");}`, true
	}
	cond := g.pick("points(31, 59, 90, DAYS)", "points(31, 59, 90, DAYS):intersects:points(10, 20, 30, DAYS)", "HOLIDAYS")
	if cond == "HOLIDAYS" && g.assigned(cond) {
		cond = "points(31, 59, 90, DAYS)"
	}
	return fmt.Sprintf("{%s if (%s)%s return (%s);}", head, cond, ret, g.flat(1)), false
}

// oracleCat is the tenant's catalog with the oracle's materialised
// temporaries as stored calendars.
type oracleCat struct {
	*caldb.Manager
	vals map[string]*calendar.Calendar
}

func (c oracleCat) StoredCalendar(name string) (*calendar.Calendar, bool) {
	if v, ok := c.vals[name]; ok {
		return v, true
	}
	return c.Manager.StoredCalendar(name)
}

func (c oracleCat) ElemKindOf(name string) (chronology.Granularity, bool) {
	if v, ok := c.vals[name]; ok {
		return v.Granularity(), true
	}
	return c.Manager.ElemKindOf(name)
}

// oracle evaluates a generated script by definition, the way the runner did
// before a temporary meant its expression: statement by statement, each
// assignment materialised over the window without factorisation and read by
// later statements as a stored calendar, a condition true when its value has
// an element. It shares with the code under test only the language's name
// resolution (callang.Subst, here binding each temporary to the name of its
// stored value). A temporary grouped by a coarser unit later is cut at the
// window's edge, so callers widen the window beyond what they compare.
func (h *straightLine) oracle(t testing.TB, src string, s *callang.Script, from, to chronology.Civil) plan.Value {
	cat := oracleCat{Manager: h.mgr, vals: map[string]*calendar.Calendar{}}
	env := *h.mgr.Env()
	env.Cat, env.DisableFactorization = cat, true
	temps := callang.Subst{}
	eval := func(x callang.Expr) *calendar.Calendar {
		x, err := temps.Apply(x)
		if err == nil {
			var c *calendar.Calendar
			if c, err = plan.Evaluate(&env, x, from, to); err == nil {
				return c
			}
		}
		t.Fatalf("%s over %v..%v: the oracle fails on %s: %v", src, from, to, x, err)
		return nil
	}
	var run func(ss []callang.Stmt) (plan.Value, bool)
	run = func(ss []callang.Stmt) (plan.Value, bool) {
		for _, st := range ss {
			switch n := st.(type) {
			case *callang.AssignStmt:
				name := fmt.Sprintf("oracle#%d", len(cat.vals))
				cat.vals[name] = eval(n.X)
				temps[n.Name] = &callang.Ident{Name: name}
			case *callang.ReturnStmt:
				if lit, ok := n.X.(*callang.StringLit); ok {
					return plan.Value{Str: lit.Val}, true
				}
				return plan.Value{Cal: eval(n.X)}, true
			case *callang.IfStmt:
				branch := n.Else
				if !eval(n.Cond).IsEmpty() {
					branch = n.Then
				}
				if v, ok := run(branch); ok {
					return v, true
				}
			default:
				t.Fatalf("%s: the oracle does not run %s", src, st)
			}
		}
		return plan.Value{}, false
	}
	v, ok := run(s.Stmts)
	if !ok {
		t.Fatalf("%s: no return", src)
	}
	return v
}

// The differential of the one script semantics: for generated scripts —
// straight-line, branching on a condition no window changes, or alerting —
// the definition (oracle) is what plan.RunScript computes over the window,
// and what a reference to the script, defined as a derived calendar, yields
// through Manager.EvalExpr, through POST /expand, and (its first start)
// through Prepared.NextAfter, as /next and a firing ask it. A straight-line
// script is evaluated there as its substituted expression, a branching one
// by the runner.
//
// The oracle runs over the window widened by `margin` days, and every value
// is compared after the route's clip (marshalExpand): the look-ahead of §3.4
// and the oracle's materialisation differ in which elements outside the
// window they carry and in how empty groups nest, never inside it.
//
// Each script also obeys the window law (snapshot reducibility): evaluated
// over the hull of the windows and restricted to one of them, it is what
// evaluating over that window yields, stored (EvalExpr) and ad hoc
// (RunScript).
func TestStraightLineScriptsMatchRunner(t *testing.T) {
	h := newStraightLine(t)
	rng := rand.New(rand.NewSource(21))
	for i := 0; h.pairs < 400 || h.laws < 400 || h.refusals < 30; i++ {
		h.check(t, rng, i%4 == 3)
	}
	t.Logf("%d script × window pairs through RunScript, EvalExpr and /expand, %d window-law pairs, %d next instants, %d branching or alerting scripts",
		h.pairs, h.laws, h.nexts, h.refusals)
}

// FuzzStraightLineScripts is the same differential and law with the fuzzer
// choosing the generator's seed; `make fuzz-smoke` runs it for 15 s.
func FuzzStraightLineScripts(f *testing.F) {
	h := newStraightLine(f)
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%4 == 3)
	}
	f.Fuzz(func(t *testing.T, seed int64, refuse bool) {
		h.check(t, rand.New(rand.NewSource(seed)), refuse)
	})
}

// straightLine is one tenant with a stored HOLIDAYS on both sides of tick 0
// (day tick 1 is 1987-01-01), the windows the differential compares over —
// before, across and after the missing tick — and their hull.
type straightLine struct {
	ts      *httptest.Server
	tok     string
	mgr     *caldb.Manager
	ch      *chronology.Chronology
	windows [][2]chronology.Civil
	hull    [2]chronology.Civil

	pairs, laws, nexts, refusals int
}

func newStraightLine(tb testing.TB) *straightLine {
	ts, srv := newTestServer(tb)
	h := &straightLine{ts: ts, tok: mkTenant(tb, ts, "sl")}
	tenant, _ := srv.Registry().Get("sl")
	h.mgr, h.ch = tenant.Manager(), tenant.System().Chron()
	// The API takes no date before the epoch; the catalog does.
	hol, err := calendar.FromPoints(chronology.Day, []chronology.Tick{-400, -181, -20, -7, 1, 31, 90, 359, 390})
	if err != nil {
		tb.Fatal(err)
	}
	if err := h.mgr.DefineStored("HOLIDAYS", hol, caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}); err != nil {
		tb.Fatal(err)
	}
	h.windows = [][2]chronology.Civil{
		{{Year: 1985, Month: 10, Day: 1}, {Year: 1986, Month: 2, Day: 28}},
		{{Year: 1986, Month: 11, Day: 15}, {Year: 1987, Month: 2, Day: 15}},
		{{Year: 1986, Month: 6, Day: 1}, {Year: 1987, Month: 9, Day: 30}},
		{{Year: 1987, Month: 1, Day: 1}, {Year: 1988, Month: 3, Day: 31}},
	}
	h.hull = [2]chronology.Civil{h.windows[0][0], h.windows[3][1]}
	return h
}

// derivedOps counts the OpDerived references to name a plan over it holds:
// one for a script the runner evaluates, none for one that is an expression.
func (h *straightLine) derivedOps(t testing.TB, name string) int {
	p, err := plan.CompileExpr(h.mgr.Env(), &callang.Ident{Name: name}, h.windows[0][0], h.windows[0][1])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := 0
	for _, op := range p.Ops {
		if op.Kind == plan.OpDerived {
			n++
		}
	}
	return n
}

// check generates one script — one that stays a script when refuse is set —
// defines it as the derived calendar "s" through the API and compares every
// path with the oracle over every window.
func (h *straightLine) check(t testing.TB, rng *rand.Rand, refuse bool) {
	const horizonDays, margin, name, base = 150, 800, "s", "/v1/tenants/sl"
	g := &slGen{rng: rng}
	src, alert := g.script(), false
	if refuse {
		src, alert = g.refused(src)
	}
	script, err := callang.ParseScript(src)
	if err != nil {
		t.Fatalf("generated script does not parse: %s: %v", src, err)
	}
	if status, body := rawCall(t, h.ts, "PUT", base+"/calendars/"+name, h.tok, map[string]any{"derivation": src}); status != http.StatusCreated {
		t.Fatalf("define %s: %d %s", src, status, body)
	}
	defer rawCall(t, h.ts, "DELETE", base+"/calendars/"+name, h.tok, nil)
	_, isExpr := script.AsExpr()
	if isExpr == refuse {
		t.Fatalf("%s: AsExpr ok = %v", src, isExpr)
	}
	if !isExpr {
		// A reference stays an OpDerived, whose evaluation is the runner.
		h.refusals++
		if h.derivedOps(t, name) != 1 {
			t.Fatalf("%s: refused by the rule but not compiled to an OpDerived", src)
		}
	} else if h.derivedOps(t, name) != 0 {
		t.Fatalf("%s: an expression, yet a reference compiles to an OpDerived", src)
	}
	env := h.mgr.Env()
	var wideStored *calendar.Calendar
	wideAdHoc, err := plan.RunScript(env, script, h.hull[0], h.hull[1])
	if err == nil && !alert {
		wideStored, err = h.mgr.EvalExpr(name, h.hull[0], h.hull[1])
	}
	if err != nil {
		t.Fatalf("%s over the hull: %v", src, err)
	}
	for _, w := range h.windows {
		want := h.oracle(t, src, script, w[0].AddDays(-margin), w[1].AddDays(margin))
		ran, err := plan.RunScript(env, script, w[0], w[1])
		if err != nil {
			t.Fatalf("%s over %v: the runner fails: %v", src, w, err)
		}
		if alert {
			if got, err := h.mgr.EvalExpr(name, w[0], w[1]); err == nil || !want.IsString() || !ran.IsString() || ran.Str != want.Str {
				t.Fatalf("%s: alert script gave %v, %v; runner %v; oracle %v", src, got, err, ran, want)
			}
			continue
		}
		got, err := h.mgr.EvalExpr(name, w[0], w[1])
		if err != nil {
			t.Fatalf("%s over %v: EvalExpr fails: %v", src, w, err)
		}
		wantBody := marshalExpand(h.ch, name, want.Cal, w[0], w[1])
		for _, c := range []struct {
			path string
			cal  *calendar.Calendar
		}{{"RunScript", ran.Cal}, {"EvalExpr", got}} {
			if body := marshalExpand(h.ch, name, c.cal, w[0], w[1]); !bytes.Equal(body, wantBody) {
				t.Fatalf("%s over %v: %s\n%s\noracle\n%s", src, w, c.path, body, wantBody)
			}
		}
		status, body := rawCall(t, h.ts, "POST", base+"/expand", h.tok, map[string]any{
			"expr": name, "from": w[0].String(), "to": w[1].String()})
		if status != http.StatusOK || !bytes.Equal(body, wantBody) {
			t.Fatalf("%s over %v: POST /expand %d\n%s\noracle\n%s", src, w, status, body, wantBody)
		}
		h.pairs++
		// The window law: the hull's value restricted to the window.
		for _, c := range []struct {
			path string
			cal  *calendar.Calendar
		}{{"RunScript", wideAdHoc.Cal}, {"EvalExpr", wideStored}} {
			if body := marshalExpand(h.ch, name, c.cal, w[0], w[1]); !bytes.Equal(body, wantBody) {
				t.Fatalf("%s: %s over %v..%v restricted to %v\n%s\nover the window\n%s", src, c.path, h.hull[0], h.hull[1], w, body, wantBody)
			}
		}
		h.laws++
	}
	if !isExpr {
		return
	}
	// The next instant after each window's first midnight, as /next and a
	// firing answer it (Prepared.NextAfter): by the scheduler's contract, the
	// least start after it in the horizon window, which the oracle evaluates
	// here.
	p := h.mgr.Prepared("", name)
	for _, w := range h.windows {
		after := h.ch.EpochSecondsOf(w[0])
		want := h.oracle(t, src, script, w[0].AddDays(-margin), w[0].AddDays(horizonDays+margin))
		horizonEnd := h.ch.EpochSecondsOf(w[0].AddDays(horizonDays + 1))
		wantAt, wantOK := int64(0), false
		for _, iv := range want.Cal.Flatten().Intervals() {
			if at := h.ch.UnitStart(want.Cal.Granularity(), iv.Lo); at > after && at < horizonEnd && (!wantOK || at < wantAt) {
				wantAt, wantOK = at, true
			}
		}
		if !wantOK {
			// Nothing within the horizon: what the scheduler then reports (an
			// absolute element beyond it, or dormancy) depends on what one
			// windowed probe happens to generate.
			continue
		}
		at, ok, err := p.NextAfter(after, horizonDays)
		if err != nil || !ok || at != wantAt {
			t.Fatalf("%s: NextAfter(%v) = %v %v %v, the oracle's first start is %v",
				src, w[0], h.ch.CivilOf(at), ok, err, h.ch.CivilOf(wantAt))
		}
		h.nexts++
	}
}
