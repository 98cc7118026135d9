package periodic_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/callang/symbolic"
	"calsys/internal/core/interval"
	"calsys/internal/core/periodic"
	"calsys/internal/core/plan"
)

// randomPattern draws a valid pattern with small period and a few spans.
func randomPattern(rng *rand.Rand) *periodic.Pattern {
	for {
		period := int64(1 + rng.Intn(40))
		n := 1 + rng.Intn(4)
		spans := make([]periodic.Span, 0, n)
		lo := int64(0)
		for i := 0; i < n; i++ {
			if lo >= period {
				break
			}
			s := periodic.Span{Lo: lo, Hi: lo + int64(rng.Intn(5))}
			spans = append(spans, s)
			lo += 1 + int64(rng.Intn(6))
		}
		if len(spans) == 0 {
			continue
		}
		phase := int64(rng.Intn(200)) - 100
		if p, err := periodic.New(period, phase, spans); err == nil {
			return p
		}
	}
}

// unroll re-represents p with its cycle repeated k times (a non-minimal but
// equivalent form).
func unroll(t *testing.T, p *periodic.Pattern, k int) *periodic.Pattern {
	t.Helper()
	var spans []periodic.Span
	for r := 0; r < k; r++ {
		shift := int64(r) * p.Period()
		for _, s := range p.Spans() {
			spans = append(spans, periodic.Span{Lo: s.Lo + shift, Hi: s.Hi + shift})
		}
	}
	return mustPattern(t, p.Period()*int64(k), p.Phase(), spans)
}

// rotate re-anchors p at its r-th span (an equivalent form with shifted
// phase), skipping rotations that violate the pattern invariants.
func rotate(t *testing.T, p *periodic.Pattern, r int) (*periodic.Pattern, bool) {
	t.Helper()
	spans := p.Spans()
	rot := make([]periodic.Span, len(spans))
	for i := range spans {
		j, wrap := r+i, int64(0)
		if j >= len(spans) {
			j -= len(spans)
			wrap = p.Period()
		}
		rot[i] = periodic.Span{Lo: spans[j].Lo + wrap - spans[r].Lo, Hi: spans[j].Hi + wrap - spans[r].Lo}
	}
	q, err := periodic.New(p.Period(), p.Phase()+spans[r].Lo, rot)
	return q, err == nil
}

func TestCanonicalIdentifiesEquivalentForms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	win := interval.Interval{Lo: chronology.TickFromOffset(-300), Hi: chronology.TickFromOffset(300)}
	for trial := 0; trial < 300; trial++ {
		p := randomPattern(rng)
		canon := p.Canonical()
		// Canonicalization preserves the element list.
		sameIntervals(t, canon.Expand(win), p.Expand(win), "canonical expansion")
		// Every equivalent re-representation canonicalizes identically.
		variants := []*periodic.Pattern{
			unroll(t, p, 1+rng.Intn(3)),
			mustPattern(t, p.Period(), p.Phase()+p.Period()*int64(1+rng.Intn(4)), p.Spans()),
		}
		if r := rng.Intn(len(p.Spans())); r > 0 {
			if q, ok := rotate(t, p, r); ok {
				variants = append(variants, q)
			}
		}
		for _, v := range variants {
			if vc := v.Canonical(); !vc.Equal(canon) {
				t.Fatalf("equivalent forms canonicalize differently:\n p      %v\n v      %v\n canon  %v\n vcanon %v",
					p, v, canon, vc)
			}
		}
	}
}

func TestCanonicalMinimalForm(t *testing.T) {
	// A week pattern written as a fortnight must reduce back to the week.
	week := mustPattern(t, 7, 3, []periodic.Span{{Lo: 0, Hi: 0}, {Lo: 2, Hi: 4}})
	fortnight := unroll(t, week, 2)
	if got, want := fortnight.Canonical(), week.Canonical(); !got.Equal(want) {
		t.Fatalf("unrolled cycle did not minimize: got %v want %v", got, want)
	}
	if got := week.Canonical(); got.Period() != 7 || len(got.Spans()) != 2 {
		t.Fatalf("canonical form not minimal: %v", got)
	}
	// The canonical phase is reduced into [0, period).
	if ph := week.Canonical().Phase(); ph < 0 || ph >= 7 {
		t.Fatalf("canonical phase %d outside [0, 7)", ph)
	}
}

// granWin builds a tick window of the given offset range.
func offWin(lo, hi int64) interval.Interval {
	return interval.Interval{Lo: chronology.TickFromOffset(lo), Hi: chronology.TickFromOffset(hi)}
}

// filterOverlapping keeps the intervals overlapping win, preserving order and
// duplicates.
func filterOverlapping(ivs []interval.Interval, win interval.Interval) []interval.Interval {
	var out []interval.Interval
	for _, iv := range ivs {
		if iv.Hi >= win.Lo && iv.Lo <= win.Hi {
			out = append(out, iv)
		}
	}
	return out
}

// expandSym expands a possibly-empty symbolic result.
func expandSym(p *periodic.Pattern, win interval.Interval) []interval.Interval {
	if p == nil {
		return nil
	}
	return p.Expand(win)
}

// setOpCase runs one symbolic set operation against its materialized oracle.
func setOpCase(t *testing.T, name string, p, q *periodic.Pattern,
	sym func(p, q *periodic.Pattern) (*periodic.Pattern, bool),
	mat func(a, b *calendar.Calendar) (*calendar.Calendar, error)) bool {
	t.Helper()
	r, ok := sym(p, q)
	if !ok {
		// Fallback is a legal answer (boundary-straddling operands, lists
		// with no pattern form); the caller asserts it stays the minority.
		return false
	}
	// The right operand's coverage must be complete around the window, so it
	// expands over a padded window.
	win := offWin(-200, 500)
	pad := q.Period() * 3
	if pad < 100 {
		pad = 100
	}
	qwin := offWin(-200-pad, 500+pad)
	a, err := calendar.FromIntervals(chronology.Day, p.Expand(win))
	if err != nil {
		t.Fatalf("%s: left operand: %v", name, err)
	}
	b, err := calendar.FromIntervals(chronology.Day, q.Expand(qwin))
	if err != nil {
		t.Fatalf("%s: right operand: %v", name, err)
	}
	oracle, err := mat(a, b)
	if err != nil {
		t.Fatalf("%s: materialized op: %v", name, err)
	}
	inner := offWin(-150, 450)
	want := filterOverlapping(oracle.Intervals(), inner)
	got := filterOverlapping(expandSym(r, inner), inner)
	sameIntervals(t, got, want, name)
	return true
}

func TestSetOpsMatchMaterialized(t *testing.T) {
	// The cuts at the edges of the common cycle anchored at p's phase, with
	// negative phases so the windows cross tick 0: q covers the cycle's
	// offsets 0 and L−1 (adjacent across the seam, and split there when a q
	// element straddles it), q's spans touch inside the cycle so SortedSet
	// must fuse them, and p has an element starting at offset 0.
	edges := [][2]*periodic.Pattern{
		{mustPattern(t, 10, -7, []periodic.Span{{Lo: 0, Hi: 3}, {Lo: 6, Hi: 9}}),
			mustPattern(t, 10, -2, []periodic.Span{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 2}, {Lo: 3, Hi: 6}})},
		{mustPattern(t, 6, -4, []periodic.Span{{Lo: 0, Hi: 5}}),
			mustPattern(t, 3, -4, []periodic.Span{{Lo: 0, Hi: 0}, {Lo: 2, Hi: 2}})},
		{mustPattern(t, 4, -9, []periodic.Span{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 3}}),
			mustPattern(t, 6, -1, []periodic.Span{{Lo: 0, Hi: 2}, {Lo: 5, Hi: 5}})},
		{mustPattern(t, 12, -13, []periodic.Span{{Lo: 0, Hi: 0}, {Lo: 11, Hi: 11}}),
			mustPattern(t, 12, -13, []periodic.Span{{Lo: 0, Hi: 0}, {Lo: 11, Hi: 11}})},
	}
	rng := rand.New(rand.NewSource(23))
	done, tried := 0, 0
	for trial := 0; trial < len(edges)+200; trial++ {
		var p, q *periodic.Pattern
		if trial < len(edges) {
			p, q = edges[trial][0], edges[trial][1]
		} else {
			p, q = randomPattern(rng), randomPattern(rng)
		}
		tried += 3
		if setOpCase(t, "union", p, q, periodic.SetUnion, calendar.Union) {
			done++
		}
		for _, ok := range []bool{
			setOpCase(t, "diff", p, q, periodic.SetDiff, calendar.Diff),
			setOpCase(t, "intersect", p, q, periodic.SetIntersect, calendar.Intersect),
		} {
			if ok {
				done++
			} else if trial < len(edges) {
				t.Fatalf("edge case %d: a cut fell back", trial)
			}
		}
	}
	if done*2 < tried {
		t.Fatalf("symbolic set ops fell back too often: %d of %d succeeded", done, tried)
	}
}

func TestSetOpsProveEmptiness(t *testing.T) {
	day := mustPattern(t, 1, 0, []periodic.Span{{Lo: 0, Hi: 0}})
	evens := mustPattern(t, 2, 0, []periodic.Span{{Lo: 0, Hi: 0}})
	odds := mustPattern(t, 2, 1, []periodic.Span{{Lo: 0, Hi: 0}})
	if r, ok := periodic.SetDiff(day, day); !ok || r != nil {
		t.Fatalf("DAYS - DAYS: got (%v, %v), want provably empty", r, ok)
	}
	if r, ok := periodic.SetIntersect(evens, odds); !ok || r != nil {
		t.Fatalf("evens ∩ odds: got (%v, %v), want provably empty", r, ok)
	}
	// Empty operands propagate without fallback.
	if r, ok := periodic.SetUnion(nil, day); !ok || !periodic.SameList(r, day) {
		t.Fatalf("∅ + DAYS: got (%v, %v)", r, ok)
	}
	if r, ok := periodic.SetDiff(nil, day); !ok || r != nil {
		t.Fatalf("∅ - DAYS: got (%v, %v)", r, ok)
	}
	if r, ok := periodic.SetIntersect(day, nil); !ok || r != nil {
		t.Fatalf("DAYS ∩ ∅: got (%v, %v)", r, ok)
	}
}

// foreachOracle materializes {x : op : y} (strict or relaxed) and returns the
// flattened element list: one sub-list per y element.
func foreachOracle(t *testing.T, x, y *periodic.Pattern, op interval.ListOp, strict bool, xwin, ywin interval.Interval) *calendar.Calendar {
	t.Helper()
	xc, err := calendar.FromIntervals(chronology.Day, x.Expand(xwin))
	if err != nil {
		t.Fatalf("foreach left operand: %v", err)
	}
	yc, err := calendar.FromIntervals(chronology.Day, y.Expand(ywin))
	if err != nil {
		t.Fatalf("foreach right operand: %v", err)
	}
	out, err := calendar.Foreach(xc, op, strict, yc)
	if err != nil {
		t.Fatalf("materialized foreach: %v", err)
	}
	return out
}

func TestForeachFlatMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ops := []interval.ListOp{interval.During, interval.Overlaps, interval.Meets}
	done, tried := 0, 0
	for trial := 0; trial < 200; trial++ {
		x, y := randomPattern(rng), randomPattern(rng)
		op := ops[rng.Intn(len(ops))]
		strict := rng.Intn(2) == 0
		tried++
		r, ok := periodic.ForeachFlat(x, y, op, strict)
		if !ok {
			continue // overlapping operands may have no pattern-form flatten
		}
		done++
		// x expands wide enough to cover members of every group whose
		// y-element overlaps the y window; the comparison happens on an
		// interior window clear of both edges.
		oracle := foreachOracle(t, x, y, op, strict, offWin(-400, 700), offWin(-200, 500))
		inner := offWin(-100, 400)
		want := filterOverlapping(oracle.Flatten().Intervals(), inner)
		got := filterOverlapping(expandSym(r, inner), inner)
		sameIntervals(t, got, want, "foreach "+op.String())
	}
	if done*2 < tried {
		t.Fatalf("ForeachFlat fell back too often: %d of %d succeeded", done, tried)
	}
}

// pickOf is sel's pick: its indices for a group of n members and, over an
// unbounded prefix (n = −1), its positions in a long list, those in the back
// half counted from the end. A front-anchored term stays non-negative there.
func pickOf(sel calendar.Selection) func(int) []int {
	return func(n int) []int {
		if n >= 0 {
			return sel.Indices(n)
		}
		const long = 1 << 20
		pos := sel.Indices(long)
		for i, p := range pos {
			if p >= long/2 {
				pos[i] = p - long
			}
		}
		return pos
	}
}

func TestForeachSelectMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, c := range []struct {
		ops   []interval.ListOp
		preds []calendar.Selection
	}{
		{[]interval.ListOp{interval.During, interval.Overlaps, interval.Meets}, []calendar.Selection{
			calendar.SelectIndex(1),
			calendar.SelectIndex(2),
			calendar.SelectIndex(-1),
			calendar.SelectLast(),
			calendar.SelectList(1, 3),
			calendar.SelectRange(2, 3),
		}},
		// A < or <= group is an unbounded prefix: only positions counted
		// from its end lower.
		{[]interval.ListOp{interval.Before, interval.BeforeEquals}, []calendar.Selection{
			calendar.SelectLast(),
			calendar.SelectIndex(-2),
			calendar.SelectRange(-2, -1),
		}},
	} {
		done, tried := 0, 0
		for trial := 0; trial < 200; trial++ {
			x, y := randomPattern(rng), randomPattern(rng)
			op := c.ops[rng.Intn(len(c.ops))]
			strict := rng.Intn(2) == 0
			sel := c.preds[rng.Intn(len(c.preds))]
			if op == interval.Before || op == interval.BeforeEquals {
				if _, ok := periodic.ForeachSelect(x, y, op, strict, pickOf(calendar.SelectIndex(1))); ok {
					t.Fatalf("[1] over foreach %s lowered: a front-anchored pick of an unbounded prefix must report ok=false", op)
				}
			}
			tried++
			r, ok := periodic.ForeachSelect(x, y, op, strict, pickOf(sel))
			if !ok {
				continue // selected lists need not have a pattern form
			}
			done++
			oracle := foreachOracle(t, x, y, op, strict, offWin(-400, 700), offWin(-200, 500))
			sc, err := calendar.Select(sel, oracle)
			if err != nil {
				t.Fatalf("materialized select: %v", err)
			}
			inner := offWin(-100, 400)
			want := filterOverlapping(sc.Flatten().Intervals(), inner)
			got := filterOverlapping(expandSym(r, inner), inner)
			sameIntervals(t, got, want, fmt.Sprintf("select %s over foreach %s (strict %v)", sel, op, strict))
		}
		if done*2 < tried {
			t.Fatalf("ForeachSelect over %v fell back too often: %d of %d succeeded", c.ops, done, tried)
		}
	}
}

func TestForeachCardsExact(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	days, err := periodic.ForBasicPair(ch, chronology.Day, chronology.Day)
	if err != nil {
		t.Fatal(err)
	}
	weeks, err := periodic.ForBasicPair(ch, chronology.Week, chronology.Day)
	if err != nil {
		t.Fatal(err)
	}
	months, err := periodic.ForBasicPair(ch, chronology.Month, chronology.Day)
	if err != nil {
		t.Fatal(err)
	}
	if min, max, ok := periodic.ForeachCards(days, weeks, interval.During); !ok || min != 7 || max != 7 {
		t.Fatalf("days per week: got (%d, %d, %v), want exactly 7", min, max, ok)
	}
	if min, max, ok := periodic.ForeachCards(days, months, interval.During); !ok || min != 28 || max != 31 {
		t.Fatalf("days per month: got (%d, %d, %v), want 28..31", min, max, ok)
	}
	// A 28-day February aligned to week boundaries holds exactly 4 weeks.
	if min, max, ok := periodic.ForeachCards(weeks, months, interval.Overlaps); !ok || min != 4 || max != 6 {
		t.Fatalf("weeks overlapping a month: got (%d, %d, %v), want 4..6", min, max, ok)
	}
}

func TestStarts(t *testing.T) {
	p := mustPattern(t, 10, 4, []periodic.Span{{Lo: 0, Hi: 2}, {Lo: 0, Hi: 5}, {Lo: 7, Hi: 8}})
	s := p.Starts()
	// Duplicate starts collapse to one firing point.
	if len(s.Spans()) != 2 {
		t.Fatalf("Starts kept duplicate points: %v", s)
	}
	win := offWin(0, 40)
	var want []interval.Interval
	seen := map[int64]bool{}
	for _, iv := range p.Expand(win) {
		lo := chronology.OffsetFromTick(iv.Lo)
		if !seen[lo] {
			seen[lo] = true
			want = append(want, interval.Interval{Lo: iv.Lo, Hi: iv.Lo})
		}
	}
	sameIntervals(t, s.Expand(win), want, "starts expansion")
	if (*periodic.Pattern)(nil).Starts() != nil {
		t.Fatal("Starts of nil must be nil")
	}
}

// canonicalOracle is the quadratic least-rotation scan Canonical replaced:
// the cycle re-anchored at its first span and minimised, then every span
// start tried as the anchor, each candidate built and validated in full, and
// the least by (reduced phase, span sequence) kept. It is the definition the
// linear Canonical is held to.
func canonicalOracle(p *periodic.Pattern) *periodic.Pattern {
	first := p.Spans()[0].Lo
	period, phase := p.Period(), p.Phase()+first
	spans := make([]periodic.Span, len(p.Spans()))
	for i, s := range p.Spans() {
		spans[i] = periodic.Span{Lo: s.Lo - first, Hi: s.Hi - first}
	}
	c := len(spans)
	for cp := 1; cp < c; cp++ {
		if c%cp != 0 || period*int64(cp)%int64(c) != 0 {
			continue
		}
		shift := period * int64(cp) / int64(c)
		similar := true
		for i := 0; i+cp < c; i++ {
			if spans[i+cp].Lo != spans[i].Lo+shift || spans[i+cp].Hi != spans[i].Hi+shift {
				similar = false
				break
			}
		}
		if !similar {
			continue
		}
		if _, err := periodic.New(shift, phase, spans[:cp]); err != nil {
			continue
		}
		spans, period = spans[:cp:cp], shift
		break
	}
	best, _ := periodic.New(period, floorMod(phase, period), spans)
	for r := 1; r < len(spans); r++ {
		rot := make([]periodic.Span, len(spans))
		for i := range spans {
			j, wrap := r+i, int64(0)
			if j >= len(spans) {
				j, wrap = j-len(spans), period
			}
			rot[i] = periodic.Span{Lo: spans[j].Lo + wrap - spans[r].Lo, Hi: spans[j].Hi + wrap - spans[r].Lo}
		}
		cand, err := periodic.New(period, floorMod(phase+spans[r].Lo, period), rot)
		if err == nil && candLess(cand, best) {
			best = cand
		}
	}
	return best
}

func floorMod(a, b int64) int64 { return (a%b + b) % b }

// candLess orders canonicalization candidates by (phase, span sequence).
func candLess(a, b *periodic.Pattern) bool {
	if a.Phase() != b.Phase() {
		return a.Phase() < b.Phase()
	}
	as, bs := a.Spans(), b.Spans()
	for i := range as {
		if as[i] != bs[i] {
			return as[i].Lo < bs[i].Lo || as[i].Lo == bs[i].Lo && as[i].Hi < bs[i].Hi
		}
	}
	return false
}

// randomCycle draws a valid pattern of at most n spans: a random phase, runs
// of equal starts, a cycle that may repeat itself, anchored at any valid
// span.
func randomCycle(t *testing.T, rng *rand.Rand, n int) *periodic.Pattern {
	for {
		reps := 1 + rng.Intn(3)
		m := max(1, n/reps)
		spans := make([]periodic.Span, 0, m)
		lo, hi := int64(0), int64(0)
		for i := 0; i < m; i++ {
			if i > 0 && rng.Intn(4) != 0 {
				lo += 1 + int64(rng.Intn(3))
			}
			hi = max(hi, lo+int64(rng.Intn(4)))
			spans = append(spans, periodic.Span{Lo: lo, Hi: hi})
		}
		period := lo + 1 + int64(rng.Intn(6))
		p, err := periodic.New(period, rng.Int63n(4*period)-2*period, spans)
		if err != nil {
			continue
		}
		p = unroll(t, p, reps)
		if q, ok := rotate(t, p, rng.Intn(len(p.Spans()))); ok {
			p = q
		}
		return p
	}
}

// assertOracle holds Canonical to the oracle on p and on its non-canonical
// re-representations: unrolled and re-anchored.
func assertOracle(t *testing.T, rng *rand.Rand, p *periodic.Pattern) {
	t.Helper()
	forms := []*periodic.Pattern{p}
	if 2*len(p.Spans()) <= 1<<12 {
		forms = append(forms, unroll(t, p, 2))
	}
	if q, ok := rotate(t, p, rng.Intn(len(p.Spans()))); ok {
		forms = append(forms, q)
	}
	for _, f := range forms {
		if got, want := f.Canonical().String(), canonicalOracle(f).String(); got != want {
			t.Fatalf("Canonical(%v)\n got  %s\n want %s", f, got, want)
		}
	}
}

// The linear Canonical is byte-identical to the quadratic scan on every cycle
// the scan covered: up to 4 096 spans.
func TestCanonicalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, c := range []struct{ trials, maxSpans int }{{400, 16}, {40, 512}, {3, 1 << 12}} {
		for trial := 0; trial < c.trials; trial++ {
			n := 1 + rng.Intn(c.maxSpans)
			if c.maxSpans == 1<<12 {
				n = c.maxSpans/2 + rng.Intn(c.maxSpans/2+1)
			}
			assertOracle(t, rng, randomCycle(t, rng, n))
		}
	}
}

// Canonical agrees with the oracle on every pattern the symbolic property
// suite lowers (each sub-expression of its shapes) that the oracle covers.
func TestCanonicalMatchesOracleOnLoweredShapes(t *testing.T) {
	env := &plan.Env{Chron: chronology.MustNew(chronology.DefaultEpoch)}
	cat := plan.NewMapCatalog()
	env.Cat = cat
	for name, src := range map[string]string{
		"Tuesdays": "[2]/DAYS:during:WEEKS;",
		"Mondays":  "{x = [1]/DAYS:during:WEEKS; return (x);}",
		"Workweek": "DAYS:during:WEEKS;",
	} {
		s, err := callang.ParseScript(src)
		if err != nil {
			t.Fatal(err)
		}
		cat.Scripts[name], cat.Kinds[name] = s, chronology.Day
	}
	rng := rand.New(rand.NewSource(73))
	checked := 0
	for _, src := range []string{
		"DAYS", "WEEKS", "MONTHS", "DAYS:during:WEEKS", "DAYS:during:MONTHS",
		"DAYS:meets:WEEKS", "WEEKS:overlaps:MONTHS", "WEEKS.overlaps.MONTHS",
		"[1]/DAYS:during:WEEKS", "[2]/DAYS:during:WEEKS", "[n]/DAYS:during:MONTHS",
		"[-1]/DAYS:during:MONTHS", "[1,3,5]/DAYS:during:WEEKS", "[2-4]/DAYS:during:WEEKS",
		"[1]/WEEKS:overlaps:MONTHS", "[1]/WEEKS.overlaps.MONTHS",
		"([1]/DAYS:during:WEEKS) + ([3]/DAYS:during:WEEKS)",
		"(DAYS:during:WEEKS) - ([1]/DAYS:during:WEEKS)",
		"([1]/DAYS:during:WEEKS):intersects:([1,2]/DAYS:during:WEEKS)",
		"[1]/MONTHS:during:YEARS", "Tuesdays", "[1]/Workweek",
		"[n]/DAYS:<:WEEKS", "[-2]/DAYS:<=:MONTHS", "[n]/WEEKS:<=:MONTHS",
		"[n]/Mondays:during:MONTHS", "[4]/(DAYS:during:([7]/(MONTHS:during:YEARS)))",
	} {
		e, err := callang.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		_, gran, err := plan.Prepare(env, e, nil)
		if err != nil {
			t.Fatal(err)
		}
		callang.Walk(e, func(sub callang.Expr) {
			if p, ok := symbolic.Eval(env.Chron, cat, sub, gran); ok && p != nil && len(p.Spans()) <= 1<<12 {
				assertOracle(t, rng, p)
				checked++
			}
		})
	}
	if checked < 60 {
		t.Fatalf("only %d lowered patterns checked", checked)
	}
}

// Canonical is complete at any cycle length: MONTHS in DAYS — 4 800 spans —
// anchored at the epoch month and re-anchored seven months later is one list.
func TestCanonicalCompleteAboveScanCap(t *testing.T) {
	months, err := periodic.ForBasicPair(chronology.MustNew(chronology.DefaultEpoch), chronology.Month, chronology.Day)
	if err != nil {
		t.Fatal(err)
	}
	later, ok := rotate(t, months, 7)
	if !ok || len(later.Spans()) != 4800 {
		t.Fatal("re-anchoring MONTHS seven months later failed")
	}
	if !periodic.SameList(months, later) {
		a, b := months.Canonical(), later.Canonical()
		t.Fatalf("re-anchored MONTHS is not the same list: canonical phases %d and %d", a.Phase(), b.Phase())
	}
}

// String is byte-identical to the fmt rendering it replaced: canonical
// strings are equivalence keys, compared across processes and releases.
func TestStringMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 200; trial++ {
		p := randomCycle(t, rng, 1+rng.Intn(40))
		var b strings.Builder
		fmt.Fprintf(&b, "period=%d phase=%d spans=%d{", p.Period(), p.Phase(), len(p.Spans()))
		for i, s := range p.Spans() {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d,%d)", s.Lo, s.Hi)
		}
		b.WriteByte('}')
		if got := p.String(); got != b.String() {
			t.Fatalf("String() = %q, want %q", got, b.String())
		}
	}
}
