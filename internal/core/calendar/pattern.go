package calendar

import (
	"slices"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
	"calsys/internal/core/periodic"
)

// ExpandWindow materializes a stretch of a periodic pattern's elements as an
// order-1 calendar — for the elements overlapping a generation window, the
// pattern-backed equivalent of GenerateFull over it — in O(output) time.
func ExpandWindow(gran chronology.Granularity, w periodic.Window) *Calendar {
	// A disjoint pattern's elements, less some, are sorted disjoint.
	return newLeaf(gran, w.Expand(), w.P.Disjoint())
}

// Picked wraps what a group walk (periodic.Window.Groups) picked as an
// order-1 list, in the order given. A slab grown past its need is trimmed to
// fit, as Diff's is: the result is what a cache retains.
func Picked(gran chronology.Granularity, ivs []interval.Interval) *Calendar {
	if cap(ivs)-len(ivs) > cap(ivs)/8 {
		ivs = slices.Clone(ivs)
	}
	return newLeaf(gran, ivs, false)
}
