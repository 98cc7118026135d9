package periodic_test

import (
	"math/rand"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
	"calsys/internal/core/periodic"
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
	rng := rand.New(rand.NewSource(23))
	done, tried := 0, 0
	for trial := 0; trial < 200; trial++ {
		p, q := randomPattern(rng), randomPattern(rng)
		tried += 3
		if setOpCase(t, "union", p, q, periodic.SetUnion, calendar.Union) {
			done++
		}
		if setOpCase(t, "diff", p, q, periodic.SetDiff, calendar.Diff) {
			done++
		}
		if setOpCase(t, "intersect", p, q, periodic.SetIntersect, calendar.Intersect) {
			done++
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

func TestForeachSelectMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ops := []interval.ListOp{interval.During, interval.Overlaps, interval.Meets}
	preds := []calendar.Selection{
		calendar.SelectIndex(1),
		calendar.SelectIndex(2),
		calendar.SelectIndex(-1),
		calendar.SelectLast(),
		calendar.SelectList(1, 3),
		calendar.SelectRange(2, 3),
	}
	done, tried := 0, 0
	for trial := 0; trial < 200; trial++ {
		x, y := randomPattern(rng), randomPattern(rng)
		op := ops[rng.Intn(len(ops))]
		strict := rng.Intn(2) == 0
		sel := preds[rng.Intn(len(preds))]
		tried++
		r, ok := periodic.ForeachSelect(x, y, op, strict, sel.Indices)
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
		sameIntervals(t, got, want, "select "+sel.String()+" over foreach "+op.String())
	}
	if done*2 < tried {
		t.Fatalf("ForeachSelect fell back too often: %d of %d succeeded", done, tried)
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
