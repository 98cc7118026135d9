package calendar

import (
	"calsys/internal/chronology"
	"calsys/internal/core/interval"
	"calsys/internal/core/periodic"
)

// ExpandPattern materializes the elements of a periodic pattern overlapping
// win as an order-1 calendar — the pattern-backed equivalent of GenerateFull
// over that window, in O(output) time.
func ExpandPattern(gran chronology.Granularity, p *periodic.Pattern, win interval.Interval) *Calendar {
	// A disjoint pattern's expansion is sorted disjoint by construction.
	return newLeaf(gran, p.Expand(win), p.Disjoint())
}
