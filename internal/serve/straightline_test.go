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

func (g *slGen) unit() string {
	return g.pick("WEEKS", "MONTHS", "YEARS")
}

// flat writes a flat day set. As the left operand of a grouping it is never
// itself a selection (see TestStraightLineScriptsMatchRunner).
func (g *slGen) flat(depth int, grouped bool) string {
	if name, ok := g.temp(false); ok {
		return name
	}
	if depth > 0 {
		switch g.rng.Intn(5) {
		case 0, 3:
			return fmt.Sprintf("(%s) %s (%s)", g.flat(depth-1, false), g.pick("+", "+", "-"), g.flat(depth-1, false))
		case 1:
			return fmt.Sprintf("(%s):intersects:(%s)", g.flat(depth-1, false), g.flat(depth-1, false))
		case 2:
			if !grouped {
				return fmt.Sprintf("%s/(%s)", g.pick("[1]", "[2]", "[n]", "[-1]"), g.group(depth-1))
			}
		}
	}
	if grouped || g.rng.Intn(2) == 0 {
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
		x = "(" + g.flat(depth, true) + ")"
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
			fmt.Fprintf(&b, " %s = (%s) %s (%s);", name, name, g.pick("+", "+", "-"), g.flat(1, false))
			prev.read = false
		case prev != nil:
			i--
		case g.rng.Intn(3) == 0 && name != "DAYS" && name != "HOLIDAYS":
			fmt.Fprintf(&b, " %s = %s;", name, g.group(1))
			g.temps = append(g.temps, &slTemp{name: name, group: true})
		default:
			fmt.Fprintf(&b, " %s = %s;", name, g.flat(2, false))
			g.temps = append(g.temps, &slTemp{name: name})
		}
	}
	ret := g.flat(1, false)
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

// refused turns a generated script into one the substitution must leave to
// the runner, and says what evaluating it yields.
func (g *slGen) refused(src string) (string, bool) {
	body := strings.TrimSuffix(strings.TrimPrefix(src, "{"), "}")
	ret := body[strings.LastIndex(body, " return ("):]
	head := strings.TrimSuffix(body, ret)
	switch g.rng.Intn(3) {
	case 0: // an assignment nothing reads
		return "{" + head + " unread = [3]/DAYS:during:WEEKS;" + ret + "}", false
	case 1: // a branch
		return "{" + head + " if (points(31, 59, 90, DAYS))" + ret + " return (DAYS);}", false
	}
	return "{" + head + ` return ("ALERT");}`, true
}

// The differential of the substitution: for generated straight-line scripts,
// the value plan.RunScript computes by running the statements — the oracle —
// is what a reference to the script, defined as a derived calendar and hence
// evaluated as its substituted expression, yields through Manager.EvalExpr,
// through POST /expand, and (its first start) through Scheduler.NextAfter.
//
// The two agree on the requested window, not element for element beyond it,
// and the comparison says so twice. Both values go through the route's clip
// (marshalExpand): the look-ahead of §3.4 narrows generation windows over the
// whole expression, the runner evaluates statement by statement, so they
// differ in which elements outside the window they carry and in how empty
// groups nest. And the runner runs over the window widened by `margin` days:
// it materialises every temporary over the requested window only, so a
// temporary a later statement groups by a coarser unit is cut at the window's
// edge and `[n]/x:during:MONTHS` then picks the last element it has, not the
// month's — the edge effect handing the compiler the whole expression
// removes. With the margin the cut lies outside what is compared.
//
// Two shapes are not generated because the runner cannot be their oracle. A
// positional selection from an order-1 list counts from the window's edge by
// definition. And the runner factorises each statement alone: the §3.4
// rewrite keeps a grouping's elements but not its nesting, so a temporary
// assigned `([1]/(DAYS:during:MONTHS)):during:MONTHS` is flat in the runner
// and a later `[1]/b` picks once from the whole list; the expression form
// leaves a selection's subject as written (callang.Factorize). Groupings
// here take DAYS or a flat set that is not itself a selection.
func TestStraightLineScriptsMatchRunner(t *testing.T) {
	h := newStraightLine(t)
	rng := rand.New(rand.NewSource(21))
	for i := 0; h.pairs < 400 || h.refusals < 30; i++ {
		h.check(t, rng, i%4 == 3)
	}
	t.Logf("%d script × window pairs through EvalExpr and /expand, %d next instants, %d refused scripts run by the runner",
		h.pairs, h.nexts, h.refusals)
}

// FuzzStraightLineScripts is the same differential with the fuzzer choosing
// the generator's seed; `make fuzz-smoke` runs it for 15 s.
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
// (day tick 1 is 1987-01-01) and the windows the differential compares over:
// before, across and after the missing tick.
type straightLine struct {
	ts      *httptest.Server
	tok     string
	mgr     *caldb.Manager
	ch      *chronology.Chronology
	windows [][2]chronology.Civil

	pairs, nexts, refusals int
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
	return h
}

// derivedOps counts the OpDerived references to name a plan over it holds:
// one for a script the runner evaluates, none for one that is an expression.
func (h *straightLine) derivedOps(t testing.TB, name string) int {
	p, err := plan.CompileExpr(h.mgr.Env(), &callang.Ident{Name: name}, nil, h.windows[0][0], h.windows[0][1])
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

// check generates one script — one the rule must refuse when refuse is set —
// defines it as the derived calendar "s" through the API and compares it with
// the runner over every window.
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
		// The rule refuses it: a reference stays an OpDerived, whose
		// evaluation is the runner.
		h.refusals++
		if h.derivedOps(t, name) != 1 {
			t.Fatalf("%s: refused by the rule but not compiled to an OpDerived", src)
		}
	} else if h.derivedOps(t, name) != 0 {
		t.Fatalf("%s: an expression, yet a reference compiles to an OpDerived", src)
	}
	oracleEnv := h.mgr.Env()
	for _, w := range h.windows {
		// A refused script is run by the runner over the window itself.
		m := int64(margin)
		if !isExpr {
			m = 0
		}
		want, err := plan.RunScript(oracleEnv, script, w[0].AddDays(-m), w[1].AddDays(m))
		if err != nil {
			t.Fatalf("%s over %v: the runner fails: %v", src, w, err)
		}
		got, err := h.mgr.EvalExpr(name, w[0], w[1])
		if alert {
			if err == nil || !want.IsString() {
				t.Fatalf("%s: alert script gave %v, %v (runner %v)", src, got, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s over %v: EvalExpr fails where the runner does not: %v", src, w, err)
		}
		wantBody := marshalExpand(h.ch, name, want.Cal, w[0], w[1])
		if gotBody := marshalExpand(h.ch, name, got, w[0], w[1]); !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("%s over %v: EvalExpr\n%s\nrunner\n%s", src, w, gotBody, wantBody)
		}
		status, body := rawCall(t, h.ts, "POST", base+"/expand", h.tok, map[string]any{
			"expr": name, "from": w[0].String(), "to": w[1].String()})
		if status != http.StatusOK || !bytes.Equal(body, wantBody) {
			t.Fatalf("%s over %v: POST /expand %d\n%s\nrunner\n%s", src, w, status, body, wantBody)
		}
		if isExpr {
			h.pairs++
		}
	}
	if !isExpr {
		return
	}
	// The next instant after each window's first midnight: by the scheduler's
	// contract, the least start after it in the horizon window, which the
	// runner evaluates here.
	l, err := h.mgr.Prepared("", name).Lowered()
	if err != nil {
		t.Fatal(err)
	}
	sched := plan.NewScheduler(h.mgr.Env(), l.Expr, l.Gran)
	sched.Configure(horizonDays, false)
	for _, w := range h.windows {
		after := h.ch.EpochSecondsOf(w[0])
		want, err := plan.RunScript(oracleEnv, script, w[0].AddDays(-margin), w[0].AddDays(horizonDays+margin))
		if err != nil {
			t.Fatal(err)
		}
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
		at, ok, err := sched.NextAfter(after)
		if err != nil || !ok || at != wantAt {
			t.Fatalf("%s: NextAfter(%v) = %v %v %v, the runner's first start is %v",
				src, w[0], h.ch.CivilOf(at), ok, err, h.ch.CivilOf(wantAt))
		}
		h.nexts++
	}
}
