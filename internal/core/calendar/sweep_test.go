package calendar

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

var allListOps = []interval.ListOp{
	interval.Overlaps, interval.During, interval.Meets, interval.Before, interval.BeforeEquals,
}

// randDisjointSorted builds a random sorted disjoint interval list with small
// gaps and widths, so boundary coincidences (meets, shared endpoints) occur
// often.
func randDisjointSorted(rng *rand.Rand, n int) []interval.Interval {
	out := make([]interval.Interval, 0, n)
	off := int64(rng.Intn(40)) - 20
	for i := 0; i < n; i++ {
		off += int64(rng.Intn(4)) + 1 // gap ≥ 1: disjoint
		lo := off
		off += int64(rng.Intn(5))
		out = append(out, interval.Interval{
			Lo: chronology.TickFromOffset(lo),
			Hi: chronology.TickFromOffset(off),
		})
	}
	return out
}

// naiveForeach is the O(n·m) reference evaluator: the generic per-element
// path applied literally, with no sweep shortcuts.
func naiveForeach(c *Calendar, op interval.ListOp, strict bool, arg *Calendar) *Calendar {
	return fromGroups(c.gran, naiveGroups(c.ivs, op, strict, arg.ivs))
}

// fromGroups builds the order-2 calendar holding exactly the given groups,
// each copied into one slab.
func fromGroups(gran chronology.Granularity, groups [][]interval.Interval) *Calendar {
	out := &Calendar{gran: gran, ext: make([]extent, len(groups))}
	for k, g := range groups {
		out.ext[k] = extent{first: len(out.ivs), n: len(g)}
		out.ivs = append(out.ivs, g...)
	}
	return out
}

// naiveGroups is the paper's definition of foreach on plain slices: one group
// per element of ys, each the elements of xs satisfying op (cut to y under
// strict where the cut is not empty).
func naiveGroups(xs []interval.Interval, op interval.ListOp, strict bool, ys []interval.Interval) [][]interval.Interval {
	groups := make([][]interval.Interval, 0, len(ys))
	for _, y := range ys {
		var out []interval.Interval
		for _, iv := range xs {
			if !op.Eval(iv, y) {
				continue
			}
			if strict {
				if cut, ok := iv.Intersect(y); ok {
					out = append(out, cut)
					continue
				}
			}
			out = append(out, iv)
		}
		groups = append(groups, out)
	}
	return groups
}

// TestForeachSweepMatchesNaive checks every sweep kernel, strict and relaxed,
// against the naive reference over randomized disjoint sorted operands, and
// that Foreach actually routes such operands through the sweep.
func TestForeachSweepMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		c, err := FromIntervals(chronology.Day, randDisjointSorted(rng, rng.Intn(12)))
		if err != nil {
			t.Fatal(err)
		}
		arg, err := FromIntervals(chronology.Day, randDisjointSorted(rng, rng.Intn(10)+2))
		if err != nil {
			t.Fatal(err)
		}
		if !c.sortedDisjoint || !arg.sortedDisjoint {
			t.Fatal("random operands not classified sorted disjoint")
		}
		for _, op := range allListOps {
			for _, strict := range []bool{false, true} {
				got := foreachSweepEndpoint(c, op, strict, arg)
				want := naiveForeach(c, op, strict, arg)
				if !got.Equal(want) {
					t.Fatalf("trial %d op %v strict %v:\nc   = %v\narg = %v\ngot  %v\nwant %v",
						trial, op, strict, c, arg, got, want)
				}
				// The public entry point must agree too (and routes through
				// the sweep, since both flags are set).
				pub, err := Foreach(c, op, strict, arg)
				if err != nil {
					t.Fatal(err)
				}
				if !pub.Equal(want) {
					t.Fatalf("trial %d op %v strict %v: Foreach diverges from reference", trial, op, strict)
				}
			}
		}
	}
}

// TestForeachSweepSharedPrefixIsolated checks that the prefix-sharing <, <=
// kernels never alias their output against later appends to the result
// calendars.
func TestForeachSweepSharedPrefixIsolated(t *testing.T) {
	c := MustFromIntervals(chronology.Day,
		interval.Interval{Lo: 1, Hi: 2},
		interval.Interval{Lo: 4, Hi: 5},
		interval.Interval{Lo: 7, Hi: 8},
	)
	arg := MustFromIntervals(chronology.Day,
		interval.Interval{Lo: 3, Hi: 3},
		interval.Interval{Lo: 6, Hi: 6},
		interval.Interval{Lo: 9, Hi: 10},
	)
	got := foreachSweepEndpoint(c, interval.Before, false, arg)
	// Appending to a group's slice must not clobber c.
	for k := 0; k < got.Len(); k++ {
		_ = append(got.Group(k), interval.Interval{Lo: 99, Hi: 99}) //nolint:staticcheck
	}
	want := MustFromIntervals(chronology.Day,
		interval.Interval{Lo: 1, Hi: 2},
		interval.Interval{Lo: 4, Hi: 5},
		interval.Interval{Lo: 7, Hi: 8},
	)
	if !c.Equal(want) {
		t.Fatalf("prefix sharing corrupted the source calendar: %v", c)
	}
}

// naiveSetOp is the reference for Diff/Intersect: per-element point-set
// arithmetic, exactly the pre-sweep implementation.
func naiveSetOp(a, b *Calendar, diff bool) *Calendar {
	bset := b.ToSet()
	var out []interval.Interval
	for _, iv := range a.ivs {
		if diff {
			out = append(out, interval.NewSet(iv).Diff(bset).Intervals()...)
		} else {
			out = append(out, interval.NewSet(iv).Intersect(bset).Intervals()...)
		}
	}
	return &Calendar{gran: a.gran, ivs: out}
}

// naiveUnion is the reference for Union on operands sorted by (lo, hi): the
// sorted concatenation, exact duplicates kept once.
func naiveUnion(a, b *Calendar) *Calendar {
	all := append(append([]interval.Interval{}, a.ivs...), b.ivs...)
	sort.SliceStable(all, func(i, j int) bool { return less(all[i], all[j]) })
	return &Calendar{gran: a.gran, ivs: slices.Compact(all)}
}

// randSortedByLo builds a random list sorted by lower bound only — elements
// may overlap, the general order-1 calendar shape.
func randSortedByLo(rng *rand.Rand, n int) []interval.Interval {
	out := make([]interval.Interval, 0, n)
	lo := int64(rng.Intn(40)) - 20
	for i := 0; i < n; i++ {
		lo += int64(rng.Intn(4))
		width := int64(rng.Intn(8))
		out = append(out, interval.Interval{
			Lo: chronology.TickFromOffset(lo),
			Hi: chronology.TickFromOffset(lo + width),
		})
	}
	return out
}

// TestLinearSetOpsMatchNaive checks the linear-merge Diff and Intersect
// against per-element point-set arithmetic for overlapping, adjacent and
// disjoint operand shapes.
func TestLinearSetOpsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 400; trial++ {
		var aIvs, bIvs []interval.Interval
		if rng.Intn(2) == 0 {
			aIvs = randDisjointSorted(rng, rng.Intn(12))
		} else {
			aIvs = randSortedByLo(rng, rng.Intn(12))
		}
		if rng.Intn(2) == 0 {
			bIvs = randDisjointSorted(rng, rng.Intn(12))
		} else {
			bIvs = randSortedByLo(rng, rng.Intn(12))
		}
		a, err := FromIntervals(chronology.Day, aIvs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := FromIntervals(chronology.Day, bIvs)
		if err != nil {
			t.Fatal(err)
		}
		gotDiff, err := Diff(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveSetOp(a, b, true); !gotDiff.Equal(want) {
			t.Fatalf("trial %d: Diff(%v, %v) = %v, want %v", trial, a, b, gotDiff, want)
		}
		gotInt, err := Intersect(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveSetOp(a, b, false); !gotInt.Equal(want) {
			t.Fatalf("trial %d: Intersect(%v, %v) = %v, want %v", trial, a, b, gotInt, want)
		}
	}
}
