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
	out := make([]interval.Interval, 0, len(c.ivs))
	for _, iv := range c.ivs {
		if !op.Eval(iv, ival) {
			continue
		}
		if strict {
			// Strict foreach keeps the part of c inside I. For the
			// non-overlapping listops (<, meets with disjoint spans) the
			// intersection is empty (the paper's ε) and the untrimmed
			// interval is kept instead, since the operator's point is
			// ordering rather than containment.
			if cut, ok := iv.Intersect(ival); ok {
				out = append(out, cut)
			} else {
				out = append(out, iv)
			}
		} else {
			out = append(out, iv)
		}
	}
	// Selecting (and trimming, each cut staying inside its element) preserves
	// the sorted disjoint shape.
	return &Calendar{gran: c.gran, ivs: out, sortedDisjoint: c.sortedDisjoint}
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
		sub, err := ForeachInterval(c, op, strict, iv)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	return FromSubs(subs)
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
// as y advances — O(n + m + output) total. The work happens in the
// endpoint-index kernels of endpointidx.go: a zero-allocation merge loop over
// flat []Tick bound arrays cached on c, a fill pass that shares untrimmed
// runs, and a closed-form diagonal fast path when both operands are views
// over the same backing array.
func foreachSweep(c *Calendar, op interval.ListOp, strict bool, arg *Calendar) *Calendar {
	if sameBacking(c, arg) {
		return foreachSelfJoin(c, op, strict)
	}
	return foreachSweepEndpoint(c, op, strict, arg)
}
