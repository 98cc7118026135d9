package periodic_test

import (
	"math/rand"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
	"calsys/internal/core/periodic"
)

// approxTicks is a rough unit length in seconds per granularity, used only to
// scale random test windows so that every pair sees both multi-element and
// sub-element windows.
var approxTicks = map[chronology.Granularity]int64{
	chronology.Second:  1,
	chronology.Minute:  60,
	chronology.Hour:    3600,
	chronology.Day:     86400,
	chronology.Week:    7 * 86400,
	chronology.Month:   2629746,
	chronology.Year:    31556952,
	chronology.Decade:  315569520,
	chronology.Century: 3155695200,
}

var testEpochs = []chronology.Civil{
	chronology.DefaultEpoch,
	{Year: 1987, Month: 3, Day: 15}, // mid-month, mid-week epoch
	{Year: 2000, Month: 2, Day: 29}, // leap-day epoch
}

// validPairs enumerates every (of, in) basic pair that Generate accepts.
func validPairs() [][2]chronology.Granularity {
	var out [][2]chronology.Granularity
	for _, of := range chronology.Granularities() {
		for _, in := range chronology.Granularities() {
			if !of.Finer(in) {
				out = append(out, [2]chronology.Granularity{of, in})
			}
		}
	}
	return out
}

// randWindow picks a random tick window in `in` ticks scaled so that it spans
// roughly 0–4 units of `of`, centered anywhere within ±10 units of the epoch.
func randWindow(rng *rand.Rand, of, in chronology.Granularity) interval.Interval {
	ratio := approxTicks[of] / approxTicks[in]
	if ratio < 1 {
		ratio = 1
	}
	lo := rng.Int63n(20*ratio+1) - 10*ratio
	hi := lo + rng.Int63n(4*ratio+2)
	return interval.Interval{Lo: chronology.TickFromOffset(lo), Hi: chronology.TickFromOffset(hi)}
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

// TestForBasicPairMatchesGenerateFull is the central property test of the
// package: for every valid basic granularity pair, under several epochs, the
// pattern's windowed expansion must equal the materialized GenerateFull list
// exactly, over randomized windows on both sides of the epoch.
func TestForBasicPairMatchesGenerateFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, epoch := range testEpochs {
		ch := chronology.MustNew(epoch)
		for _, pair := range validPairs() {
			of, in := pair[0], pair[1]
			pat, err := periodic.ForBasicPair(ch, of, in)
			if err != nil {
				t.Fatalf("epoch %v: ForBasicPair(%v,%v): %v", epoch, of, in, err)
			}
			for trial := 0; trial < 40; trial++ {
				win := randWindow(rng, of, in)
				want, err := calendar.GenerateFull(ch, of, in, win.Lo, win.Hi)
				if err != nil {
					t.Fatalf("GenerateFull(%v,%v,%v): %v", of, in, win, err)
				}
				got := pat.Expand(win)
				sameIntervals(t, got, want.Intervals(),
					of.String()+" in "+in.String()+" epoch "+epoch.String())
			}
		}
	}
}

// TestCardSelectMatchExpansion checks the O(1) cardinality arithmetic against
// the materialized list. (The plan executor answers an order-1 selection over
// a basic window by materializing it and running calendar.Select.)
func TestCardSelectMatchExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ch := chronology.MustNew(chronology.DefaultEpoch)
	for _, pair := range validPairs() {
		of, in := pair[0], pair[1]
		pat, err := periodic.ForBasicPair(ch, of, in)
		if err != nil {
			t.Fatalf("ForBasicPair(%v,%v): %v", of, in, err)
		}
		for trial := 0; trial < 30; trial++ {
			win := randWindow(rng, of, in)
			ivs := pat.Expand(win)
			if got := (periodic.Patched{Base: pat}).Card(win); got != int64(len(ivs)) {
				t.Fatalf("%v in %v win %v: Card = %d, expansion has %d", of, in, win, got, len(ivs))
			}
		}
	}
}

// mustPattern builds a pattern or fails the test.
func mustPattern(t *testing.T, period, phase int64, spans []periodic.Span) *periodic.Pattern {
	t.Helper()
	p, err := periodic.New(period, phase, spans)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestUnionMatchesCalendarUnion checks pattern-level union against the
// materialized calendar Union over shared expansion windows.
func TestUnionMatchesCalendarUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct{ p, q *periodic.Pattern }{
		// Weekly patterns, different phases.
		{mustPattern(t, 7, 0, []periodic.Span{{Lo: 0, Hi: 0}}),
			mustPattern(t, 7, 3, []periodic.Span{{Lo: 0, Hi: 1}})},
		// Different periods: every 3 days vs every 5 days.
		{mustPattern(t, 3, 1, []periodic.Span{{Lo: 0, Hi: 0}}),
			mustPattern(t, 5, 0, []periodic.Span{{Lo: 0, Hi: 0}})},
		// Multi-span cycles.
		{mustPattern(t, 10, 2, []periodic.Span{{Lo: 0, Hi: 1}, {Lo: 4, Hi: 5}}),
			mustPattern(t, 15, -4, []periodic.Span{{Lo: 0, Hi: 2}, {Lo: 7, Hi: 8}})},
		// Identical patterns: union keeps duplicates once.
		{mustPattern(t, 6, 0, []periodic.Span{{Lo: 1, Hi: 2}}),
			mustPattern(t, 6, 0, []periodic.Span{{Lo: 1, Hi: 2}})},
	}
	for i, tc := range cases {
		u, ok := periodic.SetUnion(tc.p, tc.q)
		if !ok {
			t.Fatalf("case %d: SetUnion not ok", i)
		}
		for trial := 0; trial < 40; trial++ {
			lo := rng.Int63n(200) - 100
			win := interval.Interval{
				Lo: chronology.TickFromOffset(lo),
				Hi: chronology.TickFromOffset(lo + rng.Int63n(120)),
			}
			a, err := calendar.FromIntervals(chronology.Day, tc.p.Expand(win))
			if err != nil {
				t.Fatal(err)
			}
			b, err := calendar.FromIntervals(chronology.Day, tc.q.Expand(win))
			if err != nil {
				t.Fatal(err)
			}
			want, err := calendar.Union(a, b)
			if err != nil {
				t.Fatal(err)
			}
			// The union pattern may include elements whose window overlap
			// comes only from the partner: compare on the intersection of
			// both operand element lists' index coverage — i.e. only inside
			// the window, which both expansions respected.
			got := u.Expand(win)
			sameIntervals(t, got, want.Intervals(), "case "+string(rune('a'+i)))
		}
	}
}

// TestUnionRefusesNonPattern checks that SetUnion declines when the merged list
// cannot satisfy the Pattern invariant (upper bounds must be monotone): a
// point every 3 days against a 3-wide span every 5 days interleaves into a
// list where a wide element is followed by a point inside it.
func TestUnionRefusesNonPattern(t *testing.T) {
	p := mustPattern(t, 3, 1, []periodic.Span{{Lo: 0, Hi: 0}})
	q := mustPattern(t, 5, 0, []periodic.Span{{Lo: 0, Hi: 2}})
	if _, ok := periodic.SetUnion(p, q); ok {
		t.Fatal("SetUnion accepted a merge with non-monotone upper bounds")
	}
}

// TestDiffMatchesCalendarDiff checks pattern-level difference against the
// materialized calendar Diff. The comparison window must be interior to the
// operands' shared expansion window (pattern Diff subtracts q's full periodic
// coverage; materialized Diff only what was expanded), so both are expanded
// with a margin of a common multiple of the periods (SetDiff canonicalizes, so
// the result's own period can be shorter than the lcm cycle).
func TestDiffMatchesCalendarDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct{ p, q *periodic.Pattern }{
		// Every day minus weekends (two spans per week).
		{mustPattern(t, 1, 0, []periodic.Span{{Lo: 0, Hi: 0}}),
			mustPattern(t, 7, 5, []periodic.Span{{Lo: 0, Hi: 1}})},
		// Weeks minus one day a week: splits each element.
		{mustPattern(t, 7, 0, []periodic.Span{{Lo: 0, Hi: 6}}),
			mustPattern(t, 7, 3, []periodic.Span{{Lo: 0, Hi: 0}})},
		// Different periods.
		{mustPattern(t, 4, 0, []periodic.Span{{Lo: 0, Hi: 2}}),
			mustPattern(t, 6, 1, []periodic.Span{{Lo: 0, Hi: 1}})},
	}
	for i, tc := range cases {
		d, ok := periodic.SetDiff(tc.p, tc.q)
		if !ok || d == nil {
			t.Fatalf("case %d: SetDiff = %v, %v", i, d, ok)
		}
		margin := tc.p.Period() * tc.q.Period()
		for trial := 0; trial < 40; trial++ {
			lo := rng.Int63n(200) - 100
			ln := rng.Int63n(100)
			win := interval.Interval{
				Lo: chronology.TickFromOffset(lo),
				Hi: chronology.TickFromOffset(lo + ln),
			}
			wide := interval.Interval{
				Lo: chronology.TickFromOffset(lo - margin),
				Hi: chronology.TickFromOffset(lo + ln + margin),
			}
			a, err := calendar.FromIntervals(chronology.Day, tc.p.Expand(win))
			if err != nil {
				t.Fatal(err)
			}
			b, err := calendar.FromIntervals(chronology.Day, tc.q.Expand(wide))
			if err != nil {
				t.Fatal(err)
			}
			want, err := calendar.Diff(a, b)
			if err != nil {
				t.Fatal(err)
			}
			// Materialized a holds the full extent of edge elements, so its
			// diff can include pieces entirely outside win that the windowed
			// pattern expansion rightly omits; compare the win-overlapping
			// pieces of both.
			overlapping := func(ivs []interval.Interval) []interval.Interval {
				var out []interval.Interval
				for _, iv := range ivs {
					if iv.Hi >= win.Lo && iv.Lo <= win.Hi {
						out = append(out, iv)
					}
				}
				return out
			}
			sameIntervals(t, overlapping(d.Expand(win)), overlapping(want.Intervals()), "diff case")
		}
	}
}

// TestNewValidation exercises Pattern invariant enforcement.
func TestNewValidation(t *testing.T) {
	bad := []struct {
		period, phase int64
		spans         []periodic.Span
	}{
		{0, 0, []periodic.Span{{Lo: 0, Hi: 0}}},                 // period < 1
		{5, 0, nil},                                             // no spans
		{5, 0, []periodic.Span{{Lo: -1, Hi: 0}}},                // Lo < 0
		{5, 0, []periodic.Span{{Lo: 5, Hi: 6}}},                 // Lo >= period
		{5, 0, []periodic.Span{{Lo: 2, Hi: 1}}},                 // reversed
		{5, 0, []periodic.Span{{Lo: 2, Hi: 3}, {Lo: 1, Hi: 4}}}, // Lo not sorted
		{5, 0, []periodic.Span{{Lo: 1, Hi: 4}, {Lo: 2, Hi: 3}}}, // Hi not sorted
		{5, 0, []periodic.Span{{Lo: 0, Hi: 1}, {Lo: 4, Hi: 7}}}, // Hi > first.Hi+period
	}
	for i, tc := range bad {
		if _, err := periodic.New(tc.period, tc.phase, tc.spans); err == nil {
			t.Fatalf("case %d: New(%d,%d,%v) accepted invalid pattern", i, tc.period, tc.phase, tc.spans)
		}
	}
	if _, err := periodic.New(5, -3, []periodic.Span{{Lo: 0, Hi: 1}, {Lo: 3, Hi: 5}}); err != nil {
		t.Fatalf("valid pattern rejected: %v", err)
	}
}

// TestDisjoint checks the disjointness classifier used by sweep-path gating.
func TestDisjoint(t *testing.T) {
	if !mustPattern(t, 7, 0, []periodic.Span{{Lo: 0, Hi: 2}, {Lo: 4, Hi: 5}}).Disjoint() {
		t.Fatal("disjoint pattern classified overlapping")
	}
	if mustPattern(t, 7, 0, []periodic.Span{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 5}}).Disjoint() {
		t.Fatal("overlapping spans classified disjoint")
	}
	// Cross-cycle overlap: last span reaches into the next cycle's first.
	if mustPattern(t, 7, 0, []periodic.Span{{Lo: 0, Hi: 1}, {Lo: 5, Hi: 8}}).Disjoint() {
		t.Fatal("cycle-straddling overlap classified disjoint")
	}
}

// TestNoZeroTicks checks that expansions never produce an interval bound at
// tick zero, the invariant the whole system rests on.
func TestNoZeroTicks(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	pat, err := periodic.ForBasicPair(ch, chronology.Day, chronology.Hour)
	if err != nil {
		t.Fatal(err)
	}
	win := interval.Interval{Lo: chronology.TickFromOffset(-100), Hi: chronology.TickFromOffset(100)}
	for _, iv := range pat.Expand(win) {
		if iv.Lo == 0 || iv.Hi == 0 {
			t.Fatalf("expansion produced tick zero: %v", iv)
		}
	}
}

// TestNextAfterMatchesExpansion checks the O(log spans) next-element query
// against the windowed expansion: NextAfter(t) must return exactly the first
// expanded element start strictly after t, for arbitrary patterns and query
// points on both sides of the phase.
func TestNextAfterMatchesExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pats := []*periodic.Pattern{
		mustPattern(t, 1, 0, []periodic.Span{{Lo: 0, Hi: 0}}),
		mustPattern(t, 7, 0, []periodic.Span{{Lo: 0, Hi: 6}}),
		mustPattern(t, 7, 3, []periodic.Span{{Lo: 0, Hi: 0}}),
		mustPattern(t, 10, 2, []periodic.Span{{Lo: 0, Hi: 1}, {Lo: 4, Hi: 5}}),
		mustPattern(t, 15, -4, []periodic.Span{{Lo: 0, Hi: 2}, {Lo: 7, Hi: 8}, {Lo: 12, Hi: 16}}),
		mustPattern(t, 31, 11, []periodic.Span{{Lo: 0, Hi: 0}, {Lo: 1, Hi: 4}, {Lo: 9, Hi: 9}, {Lo: 30, Hi: 31}}),
	}
	for pi, pat := range pats {
		period := pat.Period()
		for trial := 0; trial < 300; trial++ {
			x := rng.Int63n(40*period+1) - 20*period
			tk := chronology.TickFromOffset(x)
			_, start := pat.NextAfter(tk)
			got := chronology.OffsetFromTick(start)
			if got <= x {
				t.Fatalf("pattern %d: NextAfter(%d) = %d, not strictly after", pi, x, got)
			}
			win := interval.Interval{
				Lo: chronology.TickFromOffset(x - 2*period),
				Hi: chronology.TickFromOffset(x + 3*period),
			}
			var want chronology.Tick
			found := false
			for _, iv := range pat.Expand(win) {
				if chronology.OffsetFromTick(iv.Lo) > x {
					want, found = iv.Lo, true
					break
				}
			}
			if !found {
				t.Fatalf("pattern %d: no expanded start after %d in %v", pi, x, win)
			}
			if start != want {
				t.Fatalf("pattern %d: NextAfter(%d) = tick %d, expansion says %d", pi, x, start, want)
			}
		}
	}
}

// TestNextAfterBasicPairs spot-checks the infinite patterns the scheduler
// fast path relies on: the next week/month/year start after random instants
// must match a GenerateFull scan.
func TestNextAfterBasicPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ch := chronology.MustNew(chronology.DefaultEpoch)
	pairs := [][2]chronology.Granularity{
		{chronology.Week, chronology.Day},
		{chronology.Month, chronology.Day},
		{chronology.Year, chronology.Month},
	}
	for _, pair := range pairs {
		of, in := pair[0], pair[1]
		pat, err := periodic.ForBasicPair(ch, of, in)
		if err != nil {
			t.Fatal(err)
		}
		ratio := approxTicks[of] / approxTicks[in]
		full, err := calendar.GenerateFull(ch, of, in,
			chronology.TickFromOffset(-25*ratio), chronology.TickFromOffset(25*ratio))
		if err != nil {
			t.Fatal(err)
		}
		ivs := full.Intervals()
		for trial := 0; trial < 100; trial++ {
			x := rng.Int63n(40*ratio+1) - 20*ratio
			_, start := pat.NextAfter(chronology.TickFromOffset(x))
			var want chronology.Tick
			found := false
			for _, iv := range ivs {
				if chronology.OffsetFromTick(iv.Lo) > x {
					want, found = iv.Lo, true
					break
				}
			}
			if !found {
				t.Fatalf("%v in %v: no generated start after %d", of, in, x)
			}
			if start != want {
				t.Fatalf("%v in %v: NextAfter(%d) = tick %d, GenerateFull says %d", of, in, x, start, want)
			}
		}
	}
}
