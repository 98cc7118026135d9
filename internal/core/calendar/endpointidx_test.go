package calendar

import (
	"math/rand"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// TestEndpointSweepMatchesLinearAndNaive cross-checks the endpoint-index
// kernel against the O(n·m) naive definition over randomized sorted disjoint operands for
// every listop, strict and relaxed.
func TestEndpointSweepMatchesLinearAndNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		c, err := FromIntervals(chronology.Day, randDisjointSorted(rng, rng.Intn(14)))
		if err != nil {
			t.Fatal(err)
		}
		arg, err := FromIntervals(chronology.Day, randDisjointSorted(rng, rng.Intn(10)+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range allListOps {
			for _, strict := range []bool{false, true} {
				want := naiveForeach(c, op, strict, arg)
				ep := foreachSweepEndpoint(c, op, strict, arg)
				if !ep.Equal(want) {
					t.Fatalf("trial %d op %v strict %v:\nc   = %v\narg = %v\nendpoint %v\nwant     %v",
						trial, op, strict, c, arg, ep, want)
				}
			}
		}
	}
}

// TestForeachSweepOnSharedBacking checks the sweep where both operands are
// the same interval list — the same *Calendar, and distinct views over one
// backing array (what the plan layer produces when both sides of a grouping
// resolve to one cached calendar) — against the naive reference: the merge
// cursors read one array twice and the result's slab is that array.
func TestForeachSweepOnSharedBacking(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		c, err := FromIntervals(chronology.Day, randDisjointSorted(rng, rng.Intn(12)+1))
		if err != nil {
			t.Fatal(err)
		}
		view := &Calendar{gran: c.gran, ivs: c.ivs, sortedDisjoint: true}
		for _, op := range allListOps {
			for _, strict := range []bool{false, true} {
				want := naiveForeach(c, op, strict, c)
				for _, arg := range []*Calendar{c, view} {
					if got := foreachSweepEndpoint(c, op, strict, arg); !got.Equal(want) {
						t.Fatalf("trial %d op %v strict %v on shared backing:\nc = %v\ngot  %v\nwant %v",
							trial, op, strict, c, got, want)
					}
				}
			}
		}
	}
}

// TestSweepExtentsZeroAllocs pins the steady-state merge loop at exactly
// zero allocations per sweep for every listop, strict and relaxed.
func TestSweepExtentsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c, err := FromIntervals(chronology.Day, randDisjointSorted(rng, 512))
	if err != nil {
		t.Fatal(err)
	}
	arg, err := FromIntervals(chronology.Day, randDisjointSorted(rng, 128))
	if err != nil {
		t.Fatal(err)
	}
	ext := make([]extent, len(arg.ivs))
	for _, op := range allListOps {
		for _, strict := range []bool{false, true} {
			allocs := testing.AllocsPerRun(100, func() {
				sweepExtents(c.ivs, op, strict, arg.ivs, ext)
			})
			if allocs != 0 {
				t.Errorf("op %v strict %v: merge loop allocates %.1f/op, want 0", op, strict, allocs)
			}
		}
	}
}

// TestForeachSweepAllocBound pins the whole sweep to its constant allocation
// profile whatever the group count: the extents, the slab of rewritten groups
// and the result.
func TestForeachSweepAllocBound(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c, err := FromIntervals(chronology.Day, randDisjointSorted(rng, 1024))
	if err != nil {
		t.Fatal(err)
	}
	arg, err := FromIntervals(chronology.Day, randDisjointSorted(rng, 256))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range allListOps {
		for _, strict := range []bool{false, true} {
			allocs := testing.AllocsPerRun(50, func() {
				foreachSweepEndpoint(c, op, strict, arg)
			})
			if allocs > 3 {
				t.Errorf("op %v strict %v: sweep allocates %.1f/op, want ≤ 3", op, strict, allocs)
			}
		}
	}
}

// TestCovIndexFusesAdjacent checks that the cached coverage fuses elements
// adjacent in tick space (the WEEKS-in-day-ticks shape) into single spans,
// and that the set is built exactly once.
func TestCovIndexFusesAdjacent(t *testing.T) {
	c := MustFromIntervals(chronology.Day,
		interval.Interval{Lo: 1, Hi: 7},
		interval.Interval{Lo: 8, Hi: 14},
		interval.Interval{Lo: 15, Hi: 21},
		interval.Interval{Lo: 30, Hi: 33},
	)
	cv := c.coverage()
	if got := cv.String(); got != "{(1,21),(30,33)}" {
		t.Fatalf("fused coverage = %s, want {(1,21),(30,33)}", got)
	}
	if again := c.coverage(); again != cv {
		t.Fatal("coverage rebuilt on second call")
	}

	// Messy (overlapping) operands fall back to the normalized point set.
	m := MustFromIntervals(chronology.Day,
		interval.Interval{Lo: 1, Hi: 5},
		interval.Interval{Lo: 3, Hi: 9},
		interval.Interval{Lo: 11, Hi: 12},
	)
	if got := m.coverage().String(); got != "{(1,9),(11,12)}" {
		t.Fatalf("messy coverage = %s, want {(1,9),(11,12)}", got)
	}

	// Nothing to fuse: the set is the calendar's own slab, not a copy.
	h := MustFromIntervals(chronology.Day, interval.Interval{Lo: 3, Hi: 3}, interval.Interval{Lo: 9, Hi: 10})
	if &h.coverage().Intervals()[0] != &h.ivs[0] {
		t.Fatal("coverage of a non-adjacent sorted disjoint calendar copied its slab")
	}
}

// TestSetOpsMatchLinearOnAdjacentShapes pins Diff/Intersect over the fused
// cached coverage against the naive per-element point-set definition, and
// the Union merge against the sorted concatenation, on adjacent-element
// operands — where fusing actually changes the merge input.
func TestSetOpsMatchLinearOnAdjacentShapes(t *testing.T) {
	days := make([]interval.Interval, 0, 90)
	for d := int64(1); d <= 90; d++ {
		days = append(days, interval.Interval{Lo: d, Hi: d})
	}
	weeks := make([]interval.Interval, 0, 13)
	for w := int64(0); w < 13; w++ {
		weeks = append(weeks, interval.Interval{Lo: 1 + 7*w, Hi: 7 + 7*w})
	}
	a := MustFromIntervals(chronology.Day, days...)
	b := MustFromIntervals(chronology.Day, weeks...)
	for _, pair := range [][2]*Calendar{{a, b}, {b, a}} {
		x, y := pair[0], pair[1]
		gotD, err := Diff(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if wantD := naiveSetOp(x, y, true); !gotD.Equal(wantD) {
			t.Fatalf("Diff diverges from naive: got %v want %v", gotD, wantD)
		}
		gotI, err := Intersect(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if wantI := naiveSetOp(x, y, false); !gotI.Equal(wantI) {
			t.Fatalf("Intersect diverges from naive: got %v want %v", gotI, wantI)
		}
		gotU, err := Union(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if wantU := naiveUnion(x, y); !gotU.Equal(wantU) {
			t.Fatalf("Union diverges from the sorted concatenation: got %v want %v", gotU, wantU)
		}
	}
}

// TestEndpointIndexConcurrentBuild hammers the lazy coverage builder from
// many goroutines; under -race this proves the benign-CAS publication is
// clean, and every caller must observe the same index.
func TestEndpointIndexConcurrentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	c, err := FromIntervals(chronology.Day, randDisjointSorted(rng, 300))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	cov := make([]*interval.Set, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			cov[w] = c.coverage()
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	for w := 1; w < workers; w++ {
		if cov[w] != cov[0] {
			t.Fatal("concurrent coverage builds published different sets")
		}
	}
}

// TestContainsMatchesToSet checks Contains ≡ ToSet().Contains ≡ "some leaf
// holds the tick" (a scan that touches neither the cached coverage nor
// interval.Set) tick by tick (tick 0 included) over random calendars:
// order-1 disjoint, overlapping and adjacent lists, and order-2 calendars
// whose leaves are listed out of order and overlap each other. Every generator starts below tick 1, so spans that
// cross the missing tick 0 occur in most trials.
func TestContainsMatchesToSet(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	adjacent := func(n int) []interval.Interval {
		out := make([]interval.Interval, 0, n)
		off := int64(rng.Intn(20)) - 15
		for i := 0; i < n; i++ {
			w := int64(rng.Intn(4))
			out = append(out, interval.Interval{
				Lo: chronology.TickFromOffset(off),
				Hi: chronology.TickFromOffset(off + w),
			})
			off += w + 1 + int64(rng.Intn(2)) // touching, or one tick apart
		}
		return out
	}
	leaf := func() *Calendar {
		var ivs []interval.Interval
		switch rng.Intn(3) {
		case 0:
			ivs = randDisjointSorted(rng, rng.Intn(10))
		case 1:
			ivs = randSortedByLo(rng, rng.Intn(10))
		default:
			ivs = adjacent(rng.Intn(10))
		}
		c, err := FromIntervals(chronology.Day, ivs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for trial := 0; trial < 400; trial++ {
		c := leaf()
		if trial%2 == 1 {
			subs := make([]*Calendar, rng.Intn(4)+2)
			for i := range subs {
				subs[i] = leaf()
			}
			var err error
			if c, err = FromSubs(subs); err != nil {
				t.Fatal(err)
			}
		}
		set := c.ToSet()
		for off := int64(-30); off <= 110; off++ {
			want := !c.Leaves(func(run []interval.Interval) bool {
				for _, iv := range run {
					if off != 0 && iv.Lo <= off && off <= iv.Hi {
						return false
					}
				}
				return true
			})
			if got, viaSet := c.Contains(off), set.Contains(off); got != want || viaSet != want {
				t.Fatalf("trial %d: Contains(%d) = %v, ToSet().Contains = %v, leaf scan = %v\nc = %v", trial, off, got, viaSet, want, c)
			}
		}
	}
}
