package interval

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"calsys/internal/chronology"
)

func TestNewSetNormalizes(t *testing.T) {
	s := NewSet(Must(5, 9), Must(1, 3), Must(4, 4), Must(20, 25))
	// (1,3),(4,4),(5,9) coalesce into (1,9).
	want := []Interval{Must(1, 9), Must(20, 25)}
	got := s.Intervals()
	if len(got) != len(want) {
		t.Fatalf("got %v", s)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSetCoalescesAcrossZero(t *testing.T) {
	s := NewSet(Must(-3, -1), Must(1, 4))
	if s.Len() != 1 || s.Intervals()[0] != Must(-3, 4) {
		t.Errorf("(-3,-1)+(1,4) should coalesce to (-3,4), got %v", s)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(Must(1, 5), Must(10, 12))
	if s.Empty() || s.Len() != 2 {
		t.Error("set shape wrong")
	}
	if s.Cardinality() != 8 {
		t.Errorf("Cardinality = %d, want 8", s.Cardinality())
	}
	if !s.Contains(3) || !s.Contains(10) || s.Contains(7) || s.Contains(0) {
		t.Error("Contains wrong")
	}
	if h, ok := s.Hull(); !ok || h != Must(1, 12) {
		t.Errorf("Hull = %v,%v", h, ok)
	}
	if _, ok := NewSet().Hull(); ok {
		t.Error("empty hull should report false")
	}
	if s.String() != "{(1,5),(10,12)}" {
		t.Errorf("String = %q", s.String())
	}
}

// The EMP-DAYS walkthrough in §3.3 of the paper:
//
//	LDOM - LDOM_HOL + LAST_BUS_DAY
//	  = {(31,31),(59,59),(90,90)} - {(31,31),(90,90)} + {(30,30),(88,88)}
//	  = {(30,30),(59,59),(88,88)}
func TestPaperEmpDaysSetAlgebra(t *testing.T) {
	ldom := NewSet(Must(31, 31), Must(59, 59), Must(90, 90))
	ldomHol := NewSet(Must(31, 31), Must(90, 90))
	lastBus := NewSet(Must(30, 30), Must(88, 88))
	got := ldom.Diff(ldomHol).Union(lastBus)
	want := NewSet(Must(30, 30), Must(59, 59), Must(88, 88))
	if !got.Equal(want) {
		t.Errorf("EMP-DAYS = %v, want %v", got, want)
	}
}

func TestIntersectSets(t *testing.T) {
	a := NewSet(Must(1, 10), Must(20, 30))
	b := NewSet(Must(5, 25))
	got := a.Intersect(b)
	want := NewSet(Must(5, 10), Must(20, 25))
	if !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if !a.Intersect(NewSet()).Empty() {
		t.Error("intersect with empty must be empty")
	}
}

func TestDiffSets(t *testing.T) {
	a := NewSet(Must(1, 10))
	cases := []struct {
		b, want Set
	}{
		{NewSet(Must(3, 5)), NewSet(Must(1, 2), Must(6, 10))},
		{NewSet(Must(1, 10)), NewSet()},
		{NewSet(Must(-5, -1)), NewSet(Must(1, 10))},
		{NewSet(Must(8, 20)), NewSet(Must(1, 7))},
		{NewSet(Must(1, 3), Must(9, 10)), NewSet(Must(4, 8))},
	}
	for _, tc := range cases {
		if got := a.Diff(tc.b); !got.Equal(tc.want) {
			t.Errorf("(1,10) - %v = %v, want %v", tc.b, got, tc.want)
		}
	}
}

func TestDiffAcrossZero(t *testing.T) {
	a := NewSet(Must(-4, 3))
	got := a.Diff(NewSet(Must(-1, 1)))
	want := NewSet(Must(-4, -2), Must(2, 3))
	if !got.Equal(want) {
		t.Errorf("(-4,3) - (-1,1) = %v, want %v", got, want)
	}
}

func randSet(xs []int8) Set {
	ivs := make([]Interval, 0, len(xs)/2)
	for i := 0; i+1 < len(xs); i += 2 {
		ivs = append(ivs, mkIval(xs[i], xs[i+1]))
	}
	return NewSet(ivs...)
}

func TestSetAlgebraProperties(t *testing.T) {
	f := func(xs, ys []int8) bool {
		a, b := randSet(xs), randSet(ys)
		u := a.Union(b)
		i := a.Intersect(b)
		d := a.Diff(b)
		for tick := int64(-140); tick <= 140; tick++ {
			if tick == 0 {
				continue
			}
			ina, inb := a.Contains(tick), b.Contains(tick)
			if u.Contains(tick) != (ina || inb) {
				return false
			}
			if i.Contains(tick) != (ina && inb) {
				return false
			}
			if d.Contains(tick) != (ina && !inb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSetKernelsMatchPointwise pins Without and Within — the one merge behind
// Set.Diff/Intersect and calendar.Diff/Intersect — against tick-by-tick
// membership: for each element of xs, exactly the maximal runs of its ticks
// that the coverage does not (does) hold, in order. xs is a list in
// non-decreasing order of lower bound (disjoint, adjacent or overlapping) and
// then the same list shuffled, the coverage is built by SortedSet from another
// sorted list, and every list
// starts below tick 1, so runs that cross the missing tick 0 occur in most
// trials — where a kernel that stepped by ±1 would go wrong.
func TestSetKernelsMatchPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sortedByLo := func(n int) []Interval {
		out := make([]Interval, 0, n)
		off := int64(rng.Intn(12)) - 10
		for i := 0; i < n; i++ {
			w := int64(rng.Intn(5))
			out = append(out, Interval{Lo: chronology.TickFromOffset(off), Hi: chronology.TickFromOffset(off + w)})
			switch rng.Intn(4) {
			case 0: // next one overlaps this one (or repeats its lower bound)
				off += int64(rng.Intn(int(w) + 1))
			case 1: // touching
				off += w + 1
			default: // a gap
				off += w + 2 + int64(rng.Intn(3))
			}
		}
		return out
	}
	naive := func(xs, raw []Interval, want bool) []Interval {
		var out []Interval
		for _, x := range xs {
			open := false
			for t := x.Lo; t <= x.Hi; t = chronology.NextTick(t) {
				in := false
				for _, c := range raw {
					in = in || c.Contains(t)
				}
				switch {
				case in != want:
					open = false
				case open:
					out[len(out)-1].Hi = t
				default:
					out, open = append(out, Interval{Lo: t, Hi: t}), true
				}
			}
		}
		return out
	}
	shuffle := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		xs, raw := sortedByLo(rng.Intn(8)), sortedByLo(rng.Intn(8))
		cov := SortedSet(raw)
		if !cov.Equal(NewSet(raw...)) {
			t.Fatalf("trial %d: SortedSet(%v) = %v, NewSet gives %v", trial, raw, cov, NewSet(raw...))
		}
		// Second pass: the same elements in any order — what a descending
		// selection hands the set operators.
		for pass := 0; pass < 2; pass++ {
			if got, want := cov.Without(nil, xs), naive(xs, raw, false); !slices.Equal(got, want) {
				t.Fatalf("trial %d: %v.Without(%v) = %v, want %v", trial, cov, xs, got, want)
			}
			if got, want := cov.Within(nil, xs), naive(xs, raw, true); !slices.Equal(got, want) {
				t.Fatalf("trial %d: %v.Within(%v) = %v, want %v", trial, cov, xs, got, want)
			}
			shuffle.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		}
	}
}

func TestSetNormalizationInvariantProperty(t *testing.T) {
	f := func(xs []int8) bool {
		s := randSet(xs)
		ivs := s.Intervals()
		for k, iv := range ivs {
			if iv.Check() != nil {
				return false
			}
			if k > 0 {
				prev := ivs[k-1]
				// Sorted, disjoint, and non-adjacent.
				if prev.Hi >= iv.Lo || chronology.NextTick(prev.Hi) == iv.Lo {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSetEqual(t *testing.T) {
	a := NewSet(Must(1, 5))
	b := NewSet(Must(1, 3), Must(4, 5))
	if !a.Equal(b) {
		t.Error("normalization should make these equal")
	}
	if a.Equal(NewSet(Must(1, 6))) {
		t.Error("different sets must not be equal")
	}
	if a.Equal(NewSet(Must(1, 5), Must(9, 9))) {
		t.Error("different lengths must not be equal")
	}
}
