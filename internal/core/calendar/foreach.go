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
// over its groups, under C's own levels.
func ForeachInterval(c *Calendar, op interval.ListOp, strict bool, ival interval.Interval) (*Calendar, error) {
	if !op.Valid() {
		return nil, fmt.Errorf("calendar: invalid listop in foreach")
	}
	if err := ival.Check(); err != nil {
		return nil, fmt.Errorf("calendar: foreach interval argument: %w", err)
	}
	out := foreachFilter(c, op, strict, []interval.Interval{ival})
	if c.ext == nil {
		out.ext = nil // one group, the whole slab: an element list
	}
	out.up = c.up
	return out, nil
}

// foreachFilter is the definition above applied literally, for operands of
// every shape — overlapping, out of order, of any order: for each y of ys in
// turn, each group of c (its element list, at order 1) keeps the elements that
// satisfy op. A count pass sizes one exact slab and one extent per (y, group);
// the caller puts the levels over them. O(len(ys) · leaves of c).
func foreachFilter(c *Calendar, op interval.ListOp, strict bool, ys []interval.Interval) *Calendar {
	groups := c.ext
	if groups == nil {
		groups = []extent{{n: len(c.ivs)}}
	}
	total := 0
	for _, y := range ys {
		for _, e := range groups {
			for _, x := range c.run(e.first, e.n) {
				if op.Eval(x, y) {
					total++
				}
			}
		}
	}
	out := &Calendar{gran: c.gran, ivs: make([]interval.Interval, 0, total), ext: make([]extent, 0, len(ys)*len(groups))}
	for _, y := range ys {
		for _, e := range groups {
			mark := len(out.ivs)
			for _, x := range c.run(e.first, e.n) {
				if !op.Eval(x, y) {
					continue
				}
				if strict {
					x = cutTo(x, y)
				}
				out.ivs = append(out.ivs, x)
			}
			out.ext = append(out.ext, extent{first: mark, n: len(out.ivs) - mark})
		}
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
	// When both calendars are disjoint and sorted (the shape every generated
	// calendar has, cached at construction), every listop admits a merge sweep
	// in the style of Piatov et al.'s sweeping-based interval joins —
	// O(n+m+output) instead of O(n·m). Every other operand gets the definition.
	if c.Order() == 1 && c.sortedDisjoint && arg.sortedDisjoint {
		return foreachSweepEndpoint(c, op, strict, arg), nil
	}
	out := foreachFilter(c, op, strict, arg.ivs)
	if c.ext != nil {
		// One element per y, each holding c's elements under c's levels.
		levels := append([][]int{{c.Len()}}, c.up...)
		out.up = make([][]int, len(levels))
		for j, level := range levels {
			out.up[j] = make([]int, 0, len(arg.ivs)*len(level))
			for range arg.ivs {
				out.up[j] = append(out.up[j], level...)
			}
		}
	}
	return out, nil
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
