package calendar

import (
	"fmt"

	"calsys/internal/core/interval"
)

// ForeachInterval applies the paper's foreach operator with an interval as
// the third argument:
//
//	strict : {C : Op : I} ≡ { c∩I | c ∈ C ∧ Op(c,I) } \ {ε}
//	relaxed: {C . Op . I} ≡ { c   | c ∈ C ∧ Op(c,I) } \ {ε}
//
// The result preserves C's order: for an order-n C the operator is mapped
// over the sub-calendars.
func ForeachInterval(c *Calendar, op interval.ListOp, strict bool, ival interval.Interval) (*Calendar, error) {
	if !op.Valid() {
		return nil, fmt.Errorf("calendar: invalid listop in foreach")
	}
	if err := ival.Check(); err != nil {
		return nil, fmt.Errorf("calendar: foreach interval argument: %w", err)
	}
	return foreachIntervalRec(c, op, strict, ival), nil
}

func foreachIntervalRec(c *Calendar, op interval.ListOp, strict bool, ival interval.Interval) *Calendar {
	if len(c.subs) > 0 {
		subs := make([]*Calendar, 0, len(c.subs))
		for _, s := range c.subs {
			subs = append(subs, foreachIntervalRec(s, op, strict, ival))
		}
		return &Calendar{gran: c.gran, subs: subs}
	}
	out := &Calendar{gran: c.gran, ivs: make([]interval.Interval, 0, c.Cardinality())}
	keep := func(run []interval.Interval) {
		for _, iv := range run {
			if !op.Eval(iv, ival) {
				continue
			}
			if strict {
				iv = cutTo(iv, ival)
			}
			out.ivs = append(out.ivs, iv)
		}
	}
	if c.ext == nil {
		// Selecting (and trimming, each cut staying inside its element)
		// preserves the sorted disjoint shape.
		keep(c.ivs)
		out.sortedDisjoint = c.sortedDisjoint
		return out
	}
	out.ext = make([]extent, len(c.ext))
	for k := range c.ext {
		mark := len(out.ivs)
		keep(c.Group(k))
		out.ext[k] = extent{first: mark, n: len(out.ivs) - mark}
	}
	out.sortedDisjoint = disjointSorted(out.ivs)
	return out
}

// cutTo is strict foreach's element rule: the part of x inside y. For the
// non-overlapping listops (<, meets with disjoint spans) that part is empty
// (the paper's ε) and x is kept whole, since the operator's point is ordering
// rather than containment.
func cutTo(x, y interval.Interval) interval.Interval {
	if cut, ok := x.Intersect(y); ok {
		return cut
	}
	return x
}

// Foreach applies the foreach operator with a calendar third argument. Per
// §3.1, the operator is applied once per element of arg, and the result is a
// calendar of one order higher than the per-element results — except that an
// arg holding a single interval is treated as that interval (the paper
// writes "Jan-1993 is an interval" for the one-interval calendar {(1,31)}).
//
// Both calendars must share a granularity; use Generate to convert.
func Foreach(c *Calendar, op interval.ListOp, strict bool, arg *Calendar) (*Calendar, error) {
	if c.gran != arg.gran {
		return nil, fmt.Errorf("calendar: foreach granularity mismatch: %v vs %v", c.gran, arg.gran)
	}
	if iv, ok := arg.SingleInterval(); ok {
		return ForeachInterval(c, op, strict, iv)
	}
	if arg.Order() != 1 {
		return nil, fmt.Errorf("calendar: foreach third argument must be order-1, got order %d", arg.Order())
	}
	if arg.IsEmpty() {
		return Empty(c.gran), nil
	}
	if !op.Valid() {
		return nil, fmt.Errorf("calendar: invalid listop in foreach")
	}
	// Fast path: when both calendars are disjoint and sorted (the shape
	// every generated calendar has, cached at construction), every listop
	// admits a merge sweep in the style of Piatov et al.'s sweeping-based
	// interval joins — O(n+m+output) instead of O(n·m).
	if c.Order() == 1 && c.sortedDisjoint && arg.sortedDisjoint {
		return foreachSweep(c, op, strict, arg), nil
	}
	subs := make([]*Calendar, 0, len(arg.ivs))
	for _, iv := range arg.ivs {
		subs = append(subs, foreachIntervalRec(c, op, strict, iv))
	}
	return treeOf(c.gran, subs), nil
}

// disjointSorted reports whether the intervals are sorted by lower bound
// and pairwise disjoint — the shape of generated calendars.
func disjointSorted(ivs []interval.Interval) bool {
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Lo <= ivs[i-1].Hi {
			return false
		}
	}
	return true
}

// foreachSweep evaluates foreach over two disjoint sorted interval lists.
// Both bounds of such a list strictly increase, so for each arg element y the
// matching c elements are a contiguous run whose boundaries only move forward
// as y advances — O(n + m + output) total, in the kernels of endpointidx.go.
func foreachSweep(c *Calendar, op interval.ListOp, strict bool, arg *Calendar) *Calendar {
	if sameBacking(c, arg) {
		return foreachSelfJoin(c, op)
	}
	return foreachSweepEndpoint(c, op, strict, arg)
}
