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
	ivs := p.Expand(win)
	if p.Disjoint() {
		// A disjoint pattern's expansion is sorted disjoint by construction;
		// skip the classification scan.
		return leafDisjoint(gran, ivs)
	}
	return newLeaf(gran, ivs)
}
