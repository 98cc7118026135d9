package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
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

// propEnv builds the environment used by the equivalence properties.
func propEnv(t testing.TB) *Env {
	t.Helper()
	env, cat := env1987(t)
	hol, err := calendar.FromPoints(chronology.Day, []chronology.Tick{31, 90, 359, 390})
	if err != nil {
		t.Fatal(err)
	}
	cat.Stored["HOLIDAYS"] = hol
	cat.Kinds["HOLIDAYS"] = chronology.Day
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

// Sharing (CSE + generation cache) must not change semantics either.
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
	if st := env.Mat.Stats(); st.Patterns == 0 {
		t.Fatalf("periodic run stored no patterns in the shared cache: %+v", st)
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
		p, err := CompileExpr(env, e, nil, from, from.AddDays(int64(30+rng.Intn(2200))))
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
			if got := calendar.ExpandPattern(p.Gran, pat, op.Win); !got.Equal(want) {
				t.Fatalf("%s:\n pattern      %v\n GenerateFull %v", op, got, want)
			}
		}
	}
	if plans < 200 || ops < plans || preEpoch == 0 || crossing == 0 {
		t.Fatalf("thin coverage: %d plans, %d generate ops, %d pre-epoch, %d zero-crossing windows",
			plans, ops, preEpoch, crossing)
	}
}

// selectPattern must agree with materialize-then-Select for every predicate
// shape, including negative and n-last indices, over every periodic pair.
func TestSelectPatternMatchesMaterializedSelect(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	sels := []calendar.Selection{
		calendar.SelectIndex(1), calendar.SelectIndex(3), calendar.SelectIndex(-1),
		calendar.SelectIndex(-2), calendar.SelectLast(), calendar.SelectList(1, 3, -1),
		calendar.SelectRange(2, 4), calendar.SelectRange(-3, -1), calendar.SelectIndex(99),
	}
	pairs := [][2]chronology.Granularity{
		{chronology.Day, chronology.Day},
		{chronology.Week, chronology.Day},
		{chronology.Month, chronology.Day},
		{chronology.Month, chronology.Month},
		{chronology.Year, chronology.Month},
	}
	rng := rand.New(rand.NewSource(5))
	for _, pr := range pairs {
		pat, err := periodic.ForBasicPair(ch, pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			lo := int64(rng.Intn(4000)) - 2000
			win := interval.Interval{
				Lo: chronology.TickFromOffset(lo),
				Hi: chronology.TickFromOffset(lo + int64(rng.Intn(900))),
			}
			v := &regVal{pat: pat, win: win, gran: pr[1]}
			mat := calendar.ExpandPattern(pr[1], pat, win)
			for _, sel := range sels {
				got, ok := selectPattern(sel, v)
				if !ok {
					t.Fatalf("%v of %v in %v over %v: selectPattern refused", sel, pr[0], pr[1], win)
				}
				want, err := calendar.Select(sel, mat)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%v of %v in %v over %v:\n pattern      %v\n materialized %v",
						sel, pr[0], pr[1], win, got, want)
				}
			}
			if v.cal != nil {
				t.Fatal("selectPattern materialized its operand")
			}
		}
	}
}

// Sharing reduces plan size when a calendar appears more than once.
func TestSharingReducesOps(t *testing.T) {
	env := propEnv(t)
	e, err := callang.ParseExpr("([1]/DAYS:during:WEEKS) + ([2]/DAYS:during:WEEKS)")
	if err != nil {
		t.Fatal(err)
	}
	pOn, err := CompileExpr(env, e, nil, d(1993, 1, 1), d(1993, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	envOff := *env
	envOff.DisableSharing = true
	pOff, err := CompileExpr(&envOff, e, nil, d(1993, 1, 1), d(1993, 12, 31))
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
