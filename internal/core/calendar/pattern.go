package calendar

import (
	"slices"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
	"calsys/internal/core/periodic"
)

// ExpandWindow materializes the elements of x overlapping the tick window as
// an order-1 calendar — for a generation window, the pattern-backed
// equivalent of GenerateFull over it — in O(output) time.
func ExpandWindow(gran chronology.Granularity, x periodic.Patched, win interval.Interval) *Calendar {
	first, last, _ := x.IndexRange(win)
	c := x.Walk(first)
	// A disjoint pattern's elements, less some, are sorted disjoint.
	return newLeaf(gran, c.Next(make([]interval.Interval, max(last-first+1, 0))), x.Base == nil || x.Base.Disjoint())
}

// Picked wraps what a group walk (periodic.Patched.PerGroup) picked as an
// order-1 list, in the order given. A slab grown past its need is trimmed to
// fit, as Diff's is: the result is what a cache retains.
func Picked(gran chronology.Granularity, ivs []interval.Interval) *Calendar {
	if cap(ivs)-len(ivs) > cap(ivs)/8 {
		ivs = slices.Clone(ivs)
	}
	return newLeaf(gran, ivs, false)
}
