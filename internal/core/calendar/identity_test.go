package calendar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// randOrder1 builds a random order-1 day calendar with n elements.
func randOrder1(rng *rand.Rand, n int) *Calendar {
	ivs := make([]interval.Interval, 0, n)
	lo := int64(rng.Intn(30) - 15)
	if lo == 0 {
		lo = 1
	}
	for i := 0; i < n; i++ {
		hi := chronology.AddTicks(lo, int64(rng.Intn(6)))
		ivs = append(ivs, interval.Interval{Lo: lo, Hi: hi})
		// Advance at least one tick so elements stay disjoint (calendars may
		// legally overlap, but the set-law properties assume element lists).
		lo = chronology.AddTicks(hi, int64(rng.Intn(4))+1)
	}
	c, err := FromIntervals(chronology.Day, ivs)
	if err != nil {
		panic(err)
	}
	return c
}

func randIval(rng *rand.Rand) interval.Interval {
	lo := int64(rng.Intn(40) - 20)
	if lo == 0 {
		lo = 1
	}
	return interval.Interval{Lo: lo, Hi: chronology.AddTicks(lo, int64(rng.Intn(15)))}
}

// Identity: every strict-during survivor also survives strict overlaps, and
// every strict-overlaps element is contained in the corresponding relaxed
// element set.
func TestForeachContainmentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randOrder1(rng, rng.Intn(8)+1)
		iv := randIval(rng)
		during, err := ForeachInterval(c, interval.During, true, iv)
		if err != nil {
			return false
		}
		strictOv, err := ForeachInterval(c, interval.Overlaps, true, iv)
		if err != nil {
			return false
		}
		relaxedOv, err := ForeachInterval(c, interval.Overlaps, false, iv)
		if err != nil {
			return false
		}
		// during ⊆ strict overlaps (as point sets).
		if !during.ToSet().Diff(strictOv.ToSet()).Empty() {
			return false
		}
		// strict overlaps ⊆ relaxed overlaps (trimming only removes points).
		if !strictOv.ToSet().Diff(relaxedOv.ToSet()).Empty() {
			return false
		}
		// Same survivor count for strict and relaxed overlaps.
		return strictOv.Len() == relaxedOv.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Identity: strict overlaps equals relaxed overlaps intersected with the
// argument interval.
func TestStrictIsRelaxedClippedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randOrder1(rng, rng.Intn(8)+1)
		iv := randIval(rng)
		strict, err := ForeachInterval(c, interval.Overlaps, true, iv)
		if err != nil {
			return false
		}
		relaxed, err := ForeachInterval(c, interval.Overlaps, false, iv)
		if err != nil {
			return false
		}
		clipped := relaxed.ToSet().Intersect(interval.NewSet(iv))
		return strict.ToSet().Equal(clipped)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Selection laws: [k] twice is [k] then [1]; [n] equals [-1]; selection
// never invents elements.
func TestSelectionLawsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randOrder1(rng, rng.Intn(9)+1)
		k := rng.Intn(9) + 1
		sel, err := Select(SelectIndex(k), c)
		if err != nil {
			return false
		}
		// Idempotence via [1]: selecting again yields the same element.
		again, err := Select(SelectIndex(1), sel)
		if err != nil {
			return false
		}
		if !again.Equal(sel) {
			return false
		}
		last, err := Select(SelectLast(), c)
		if err != nil {
			return false
		}
		negOne, err := Select(SelectIndex(-1), c)
		if err != nil {
			return false
		}
		if !last.Equal(negOne) {
			return false
		}
		// Subset: selected points are points of c.
		return sel.ToSet().Diff(c.ToSet()).Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Set-operator laws at the calendar level: A - B, A:intersects:B and B
// partition A∪B's points correctly.
func TestCalendarSetLawsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randOrder1(rng, rng.Intn(6)+1)
		b := randOrder1(rng, rng.Intn(6)+1)
		u, err := Union(a, b)
		if err != nil {
			return false
		}
		d, err := Diff(a, b)
		if err != nil {
			return false
		}
		x, err := Intersect(a, b)
		if err != nil {
			return false
		}
		// Point-set semantics: union covers both; diff+intersect = a.
		if !u.ToSet().Equal(a.ToSet().Union(b.ToSet())) || u.sortedDisjoint != disjointSorted(u.ivs) {
			return false
		}
		if !d.ToSet().Union(x.ToSet()).Equal(a.ToSet()) {
			return false
		}
		if !d.ToSet().Intersect(b.ToSet()).Empty() {
			return false
		}
		// Element atomicity: difference never merges adjacent elements.
		for i := 1; i < d.Len(); i++ {
			if d.Interval(i-1).Hi >= d.Interval(i).Lo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Caloperate conservation: grouping preserves the element hull and the
// element count matches ceil division for uniform counts.
func TestCaloperateConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 1
		c := randOrder1(rng, n)
		k := rng.Intn(5) + 1
		g, err := Caloperate(c, []int{k})
		if err != nil {
			return false
		}
		want := (n + k - 1) / k
		if g.Len() != want {
			return false
		}
		h1, ok1 := c.Hull()
		h2, ok2 := g.Hull()
		return ok1 && ok2 && h1 == h2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Flatten preserves the point set and leaf count for foreach results.
func TestFlattenInvariantProperty(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	f := func(spanRaw uint8) bool {
		span := int64(spanRaw)%300 + 40
		weeks, err := GenerateFull(ch, chronology.Week, chronology.Day, 1, span)
		if err != nil {
			return false
		}
		days, err := GenerateFull(ch, chronology.Day, chronology.Day, 1, span)
		if err != nil {
			return false
		}
		o2, err := Foreach(days, interval.During, true, weeks)
		if err != nil {
			return false
		}
		flat := o2.Flatten()
		if flat.Order() != 1 {
			return false
		}
		if flat.Len() != o2.Cardinality() {
			return false
		}
		return flat.ToSet().Equal(o2.ToSet())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The merge-sweep fast path must agree with the per-element definition for
// every listop and strictness, on generated (disjoint sorted) calendars and
// on random possibly-overlapping ones.
func TestForeachSweepEquivalenceProperty(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	naive := func(c *Calendar, op interval.ListOp, strict bool, arg *Calendar) *Calendar {
		subs := make([]*Calendar, 0, arg.Len())
		for _, iv := range arg.Intervals() {
			sub, err := ForeachInterval(c, op, strict, iv)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
		}
		out, err := FromSubs(subs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c, arg *Calendar
		if rng.Intn(2) == 0 {
			span := int64(rng.Intn(400) + 60)
			var err error
			c, err = GenerateFull(ch, chronology.Week, chronology.Day, 1, span)
			if err != nil {
				return false
			}
			arg, err = GenerateFull(ch, chronology.Month, chronology.Day, 1, span)
			if err != nil {
				return false
			}
		} else {
			c = randOrder1(rng, rng.Intn(8)+2)
			arg = randOrder1(rng, rng.Intn(4)+2)
		}
		for _, op := range []interval.ListOp{interval.During, interval.Overlaps} {
			for _, strict := range []bool{true, false} {
				got, err := Foreach(c, op, strict, arg)
				if err != nil {
					return false
				}
				want := naive(c, op, strict, arg)
				if !got.Equal(want) {
					t.Logf("op=%v strict=%v\n got %v\nwant %v", op, strict, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
