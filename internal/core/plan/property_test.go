package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/callang/symbolic"
	"calsys/internal/core/interval"
	"calsys/internal/core/matcache"
	"calsys/internal/core/periodic"
)

// genExpr builds a random calendar expression over the basic calendars and
// a stored HOLIDAYS calendar, with foreach chains, selections, label
// selections and set operators — the grammar the §3.4 optimizers rewrite.
func genExpr(rng *rand.Rand, depth int) string {
	if depth <= 0 {
		return genLeaf(rng)
	}
	switch rng.Intn(8) {
	case 0, 1, 2: // foreach chain
		op := []string{"during", "overlaps", "meets", "<", "<="}[rng.Intn(5)]
		sep := ":"
		if rng.Intn(4) == 0 && op != "<" && op != "<=" {
			sep = "."
		}
		left := genOperand(rng, depth-1)
		right := genOperand(rng, depth-1)
		return fmt.Sprintf("%s%s%s%s%s", left, sep, op, sep, right)
	case 3: // selection
		pred := []string{"[1]", "[2]", "[n]", "[-1]", "[1,3]", "[2-4]"}[rng.Intn(6)]
		return fmt.Sprintf("%s/(%s)", pred, genExpr(rng, depth-1))
	case 4: // label selection over years
		return fmt.Sprintf("%d/YEARS", 1990+rng.Intn(6))
	case 5: // union / difference
		op := []string{"+", "-"}[rng.Intn(2)]
		// Operands must be order-1 and same granularity: use day-kind leaves.
		return fmt.Sprintf("([n]/DAYS:during:MONTHS) %s (%s)", op, dayLeaf(rng))
	case 6: // intersects
		return fmt.Sprintf("([n]/DAYS:during:MONTHS):intersects:(%s)", dayLeaf(rng))
	default:
		return genLeaf(rng)
	}
}

// genOperand wraps sub-expressions in parens so chains parse as generated.
func genOperand(rng *rand.Rand, depth int) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		return genLeaf(rng)
	}
	return "(" + genExpr(rng, depth) + ")"
}

func genLeaf(rng *rand.Rand) string {
	return []string{"DAYS", "WEEKS", "MONTHS", "YEARS", "HOLIDAYS",
		"interval(40, 70, DAYS)", "points(10, 20, 30, DAYS)"}[rng.Intn(7)]
}

func dayLeaf(rng *rand.Rand) string {
	return []string{"HOLIDAYS", "points(31, 59, 90, DAYS)", "[2]/DAYS:during:WEEKS"}[rng.Intn(3)]
}

// propEnv builds the environment used by the equivalence properties: the
// stored point calendars HOLIDAYS and EXC. EXC's points fall on weekends, on
// the edges of weeks, months and quarters, and on both sides of tick 0 (the
// 1987 epoch), years apart.
func propEnv(t testing.TB) *Env {
	t.Helper()
	env, cat := env1987(t)
	hol, err := calendar.FromPoints(chronology.Day, []chronology.Tick{31, 90, 359, 390})
	if err != nil {
		t.Fatal(err)
	}
	cat.Stored["HOLIDAYS"] = hol
	cat.Kinds["HOLIDAYS"] = chronology.Day
	var pts []chronology.Tick
	for y := 1984; y <= 1996; y++ {
		for _, md := range [][2]int{{1, 1}, {3, 31}, {4, 1}, {6, 30}, {7, 4}, {9, 13}, {12, 31}} {
			c := d(y, md[0], md[1])
			pts = append(pts, env.Chron.DayTick(c), env.Chron.DayTick(c.AddDays(int64(y%7))))
		}
	}
	exc, err := calendar.FromPoints(chronology.Day, append(pts, -1, 1, 2, -2))
	if err != nil {
		t.Fatal(err)
	}
	cat.Stored["EXC"] = exc
	cat.Kinds["EXC"] = chronology.Day
	return env
}

// The §3.4 factorization rewrite must preserve evaluation results on
// arbitrary expressions, not just the paper's two examples.
func TestFactorizationEquivalenceProperty(t *testing.T) {
	env := propEnv(t)
	envOff := *env
	envOff.DisableFactorization = true
	from, to := d(1990, 1, 1), d(1995, 12, 31)

	rng := rand.New(rand.NewSource(1994))
	checked := 0
	for i := 0; i < 400; i++ {
		src := genExpr(rng, 3)
		e, err := callang.ParseExpr(src)
		if err != nil {
			t.Fatalf("generated expression %q does not parse: %v", src, err)
		}
		a, errA := Evaluate(env, e, from, to)
		b, errB := Evaluate(&envOff, e, from, to)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%q: factorized err=%v, unfactorized err=%v", src, errA, errB)
		}
		if errA != nil {
			continue // type errors (granularity mixes etc.) must agree, and do
		}
		checked++
		if !a.Flatten().ToSet().Equal(b.Flatten().ToSet()) {
			t.Fatalf("%q:\n factorized  %v\n unfactorized %v", src, a.Flatten(), b.Flatten())
		}
	}
	if checked < 100 {
		t.Fatalf("only %d of 400 generated expressions evaluated; generator too error-prone", checked)
	}
}

// Window inference must also be semantics-preserving on arbitrary
// expressions: narrowed generation windows may not change results.
func TestWindowInferenceEquivalenceProperty(t *testing.T) {
	env := propEnv(t)
	envOff := *env
	envOff.DisableWindowInference = true
	from, to := d(1990, 1, 1), d(1995, 12, 31)

	rng := rand.New(rand.NewSource(42))
	checked := 0
	for i := 0; i < 400; i++ {
		src := genExpr(rng, 3)
		e, err := callang.ParseExpr(src)
		if err != nil {
			t.Fatalf("generated expression %q does not parse: %v", src, err)
		}
		a, errA := Evaluate(env, e, from, to)
		b, errB := Evaluate(&envOff, e, from, to)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%q: windowed err=%v, unwindowed err=%v", src, errA, errB)
		}
		if errA != nil {
			continue
		}
		checked++
		if !a.Flatten().ToSet().Equal(b.Flatten().ToSet()) {
			t.Fatalf("%q:\n windowed   %v\n unwindowed %v", src, a.Flatten(), b.Flatten())
		}
	}
	if checked < 100 {
		t.Fatalf("only %d of 400 generated expressions evaluated", checked)
	}
}

// Evaluation must be deterministic: two runs of the same plan agree.
func TestEvaluateDeterministicProperty(t *testing.T) {
	env := propEnv(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		src := genExpr(rng, 3)
		e, err := callang.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		a, errA := Evaluate(env, e, d(1991, 1, 1), d(1993, 12, 31))
		b, errB := Evaluate(env, e, d(1991, 1, 1), d(1993, 12, 31))
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%q: nondeterministic error", src)
		}
		if errA == nil && !a.Equal(b) {
			t.Fatalf("%q: nondeterministic result", src)
		}
	}
}

// Sharing (CSE + evaluation from patterns) must not change semantics either.
func TestSharingEquivalenceProperty(t *testing.T) {
	env := propEnv(t)
	envOff := *env
	envOff.DisableSharing = true
	from, to := d(1991, 1, 1), d(1994, 12, 31)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		src := genExpr(rng, 3)
		e, err := callang.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		a, errA := Evaluate(env, e, from, to)
		b, errB := Evaluate(&envOff, e, from, to)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%q: shared err=%v, unshared err=%v", src, errA, errB)
		}
		if errA == nil && !a.Flatten().ToSet().Equal(b.Flatten().ToSet()) {
			t.Fatalf("%q: shared %v != unshared %v", src, a.Flatten(), b.Flatten())
		}
	}
}

// The periodic path (pattern-backed generate ops, selection by index
// arithmetic, lazy expansion) must preserve evaluation results on arbitrary
// expressions: an environment with a cache answers every generate op from the
// pair's pattern, a cacheless one from calendar.GenerateFull — the
// definition.
func TestPeriodicEquivalenceProperty(t *testing.T) {
	env := propEnv(t)
	envOff := *env
	env.Mat = matcache.New(0)
	env.MatScope = "prop-periodic"
	from, to := d(1990, 1, 1), d(1995, 12, 31)

	rng := rand.New(rand.NewSource(2026))
	checked, hits := 0, symbolic.Stats().Hits
	for i := 0; i < 400; i++ {
		src := genExpr(rng, 3)
		e, err := callang.ParseExpr(src)
		if err != nil {
			t.Fatalf("generated expression %q does not parse: %v", src, err)
		}
		a, errA := Evaluate(env, e, from, to)
		b, errB := Evaluate(&envOff, e, from, to)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%q: periodic err=%v, materialized err=%v", src, errA, errB)
		}
		if errA != nil {
			continue
		}
		checked++
		if !a.Flatten().ToSet().Equal(b.Flatten().ToSet()) {
			t.Fatalf("%q:\n periodic     %v\n materialized %v", src, a.Flatten(), b.Flatten())
		}
	}
	if checked < 100 {
		t.Fatalf("only %d of 400 generated expressions evaluated", checked)
	}
	if st := symbolic.Stats(); st.Hits == hits {
		t.Fatalf("periodic run served no generate op from a memoized pattern: %+v", st)
	}
}

// Every generate op a compiled plan can hold — whatever window inference made
// of the request, before the epoch and across the no-zero tick boundary
// included — must expand from its pair's pattern to exactly what
// calendar.GenerateFull walks, interval for interval.
func TestGenerateOpsMatchGenerateFull(t *testing.T) {
	env := propEnv(t)
	rng := rand.New(rand.NewSource(15))
	plans, ops, preEpoch, crossing := 0, 0, 0, 0
	for i := 0; plans < 250 && i < 2000; i++ {
		e, err := callang.ParseExpr(genExpr(rng, 3))
		if err != nil {
			t.Fatal(err)
		}
		// Windows of one month to six years starting 1975–1994 around the
		// 1987 epoch.
		from := d(1975+rng.Intn(20), 1+rng.Intn(12), 1)
		p, err := CompileExpr(env, e, from, from.AddDays(int64(30+rng.Intn(2200))))
		if err != nil {
			continue // granularity mixes etc.
		}
		plans++
		for _, op := range p.Ops {
			if op.Kind != OpGenerate {
				continue
			}
			ops++
			switch {
			case op.Win.Hi < 0:
				preEpoch++
			case op.Win.Lo < 0:
				crossing++
			}
			pat, err := periodic.ForBasicPair(env.Chron, op.Of, p.Gran)
			if err != nil {
				t.Fatalf("%v in %v: %v", op.Of, p.Gran, err)
			}
			want, err := calendar.GenerateFull(env.Chron, op.Of, p.Gran, op.Win.Lo, op.Win.Hi)
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			if got := calendar.ExpandWindow(p.Gran, periodic.Patched{Base: pat}, op.Win); !got.Equal(want) {
				t.Fatalf("%s:\n pattern      %v\n GenerateFull %v", op, got, want)
			}
		}
	}
	if plans < 200 || ops < plans || preEpoch == 0 || crossing == 0 {
		t.Fatalf("thin coverage: %d plans, %d generate ops, %d pre-epoch, %d zero-crossing windows",
			plans, ops, preEpoch, crossing)
	}
}

// Sharing reduces plan size when a calendar appears more than once.
func TestSharingReducesOps(t *testing.T) {
	env := propEnv(t)
	e, err := callang.ParseExpr("([1]/DAYS:during:WEEKS) + ([2]/DAYS:during:WEEKS)")
	if err != nil {
		t.Fatal(err)
	}
	pOn, err := CompileExpr(env, e, d(1993, 1, 1), d(1993, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	envOff := *env
	envOff.DisableSharing = true
	pOff, err := CompileExpr(&envOff, e, d(1993, 1, 1), d(1993, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	if len(pOn.Ops) >= len(pOff.Ops) {
		t.Errorf("shared plan has %d ops, unshared %d — sharing should shrink",
			len(pOn.Ops), len(pOff.Ops))
	}
	if pOn.GenerateCost() >= pOff.GenerateCost() {
		t.Errorf("shared cost %d should be below unshared %d", pOn.GenerateCost(), pOff.GenerateCost())
	}
}

// genWalkExpr builds the expressions the executor answers lazily — a point
// list, possibly less a stored one, grouped by a generated or a caloperate
// calendar and selected from, or intersected — among genExpr's.
func genWalkExpr(rng *rand.Rand) string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	x := pick("[1,2,3,4,5]/DAYS:during:WEEKS", "[5]/DAYS:during:WEEKS", "DAYS", "DAYS:during:WEEKS",
		"WEEKS", "[1]/WEEKS:overlaps:MONTHS", "[2,4]/DAYS:overlaps:MONTHS")
	if rng.Intn(3) > 0 {
		x = "(" + x + ") - " + pick("EXC", "HOLIDAYS", "points(31, 59, 90, DAYS)", "[1]/DAYS:during:MONTHS",
			"interval(3000, 3010, DAYS)", "[2]/WEEKS:during:MONTHS")
	}
	y := pick("MONTHS", "WEEKS", "YEARS", "caloperate(MONTHS, 3)", "caloperate(WEEKS, 2)", "[1]/WEEKS:overlaps:MONTHS", "EXC")
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s):intersects:(%s)", x, pick("[1]/WEEKS:overlaps:MONTHS", "EXC", "[n]/DAYS:during:MONTHS", "WEEKS"))
	case 1:
		return genExpr(rng, 3)
	}
	op := pick(":during:", ":overlaps:", ".overlaps.", ":during:", ":meets:", ":<:", ":<=:")
	sel := pick("[1]", "[n]", "[-2]", "[2,4]", "[1-3]")
	return fmt.Sprintf("%s/(%s)%s(%s)", sel, x, op, y)
}

// evalBoth compiles src over [from, to] once and runs the plan lazily (env,
// with a cache) and under DisableSharing, the executor's eager oracle. It
// reports whether the expression evaluated.
func evalBoth(t testing.TB, env *Env, src string, from, to chronology.Civil) bool {
	e, err := callang.ParseExpr(src)
	if err != nil {
		t.Fatalf("generated expression %q does not parse: %v", src, err)
	}
	p, err := CompileExpr(env, e, from, to)
	if err != nil {
		return false
	}
	off := *env
	off.DisableSharing = true
	a, errA := p.Exec(env, nil)
	b, errB := p.Exec(&off, nil)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("%q over %v..%v: lazy err=%v, eager err=%v", src, from, to, errA, errB)
	}
	if errA == nil && !a.Equal(b) {
		t.Fatalf("%q over %v..%v:\n lazy  %v\n eager %v", src, from, to, a, b)
	}
	return errA == nil
}

// The lazy executor — windows with exceptions, basic-only sub-trees read from
// the memo, selections and intersections walked group by group — must return
// what the eager one does, Equal (order, groups and all), not just the same
// point set: on stored point operands and across tick 0.
func TestLazyMatchesEagerProperty(t *testing.T) {
	env := propEnv(t)
	env.Mat = matcache.New(0)
	rng := rand.New(rand.NewSource(33))
	checked := 0
	for i := 0; i < 600; i++ {
		from := d(1984+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(28))
		if evalBoth(t, env, genWalkExpr(rng), from, from.AddDays(int64(20+rng.Intn(2500)))) {
			checked++
		}
	}
	if checked < 300 {
		t.Fatalf("only %d of 600 generated expressions evaluated", checked)
	}
}

// FuzzGroupWalk compares the lazy and the eager executor on generated
// expressions over fuzzed windows.
func FuzzGroupWalk(f *testing.F) {
	env := propEnv(f)
	env.Mat = matcache.New(0)
	f.Add(int64(1), 0, 365)
	f.Add(int64(7), 800, 40)
	f.Add(int64(42), -400, 3000)
	f.Fuzz(func(t *testing.T, seed int64, start, span int) {
		from := d(1987, 1, 1).AddDays(int64(start % 5000))
		evalBoth(t, env, genWalkExpr(rand.New(rand.NewSource(seed))), from, from.AddDays(int64(span%4000+4000)%4000))
	})
}

// A grouping's flattened value is the lowered pattern's elements over the
// hull of y's elements only when x's window covers y's end elements, and so
// every member of their groups: a window of x cut short of them keeps the
// value a grouping, and the walk then answers from what x holds.
func TestViewNeedsWholeGroups(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	days, _ := symbolic.Basic(ch, chronology.Day, chronology.Day)
	weeks, _ := symbolic.Basic(ch, chronology.Week, chronology.Day)
	e, err := callang.ParseExpr("[1,2,3,4,5]/DAYS:during:WEEKS")
	if err != nil {
		t.Fatal(err)
	}
	pat, ok := symbolic.Eval(ch, nil, e, chronology.Day)
	if !ok {
		t.Fatal("weekdays do not lower")
	}
	y := &regVal{px: periodic.Patched{Base: weeks}, win: interval.Interval{Lo: 100, Hi: 200}, gran: chronology.Day}
	for _, tc := range []struct {
		x    interval.Interval
		view bool
	}{{interval.Interval{Lo: 90, Hi: 210}, true}, {interval.Interval{Lo: 100, Hi: 200}, false}} {
		x := &regVal{px: periodic.Patched{Base: days}, win: tc.x, gran: chronology.Day}
		v := &regVal{fe: &grouping{x: x, y: y, op: interval.During, strict: true}, sel: calendar.SelectList(1, 2, 3, 4, 5), grouped: true, gran: chronology.Day}
		v.view(pat)
		if (v.px.Base != nil) != tc.view {
			t.Fatalf("x over %v: view %v, want %v", tc.x, v.px.Base != nil, tc.view)
		}
		got, err := v.materialize()
		if err != nil {
			t.Fatal(err)
		}
		if v.px.Base != nil && !calendar.ExpandWindow(chronology.Day, v.px, v.win).Equal(got.Flatten()) {
			t.Fatalf("x over %v: the view is not the flattened value", tc.x)
		}
	}
}
