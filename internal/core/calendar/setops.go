package calendar

import (
	"fmt"
	"slices"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// The calendar set operators are element-wise: a calendar is an ordered
// collection of intervals (LMF86), so union keeps the elements of both
// operands, and difference/intersection trim or split each element of the
// left operand against the right operand's point coverage — adjacent
// elements are never merged. The paper's AM_BUS_DAYS stays a list of
// single-day elements after "WD - HOLIDAYS", exactly as §3.3 displays it.

// checkSetOperands validates the operands of the set operators (+, -,
// intersects), which the paper applies to order-1 calendars of a common
// granularity.
func checkSetOperands(opName string, a, b *Calendar) error {
	if a.gran != b.gran {
		return fmt.Errorf("calendar: %s granularity mismatch: %v vs %v", opName, a.gran, b.gran)
	}
	if a.Order() != 1 || b.Order() != 1 {
		return fmt.Errorf("calendar: %s requires order-1 operands (got order %d and %d)", opName, a.Order(), b.Order())
	}
	return nil
}

// Union implements the calendar "+" operator: the merged, ordered element
// list of both calendars, with exact duplicates kept once (see the EMP-DAYS
// script of §3.3). Between sorted disjoint operands — the common case for
// generated calendars — duplicates can only meet head to head, so the merge
// looks back for one only otherwise; it classifies the result's shape as it
// goes instead of rescanning.
func Union(a, b *Calendar) (*Calendar, error) {
	if err := checkSetOperands("+", a, b); err != nil {
		return nil, err
	}
	out := make([]interval.Interval, 0, len(a.ivs)+len(b.ivs))
	i, j, sd, prevHi := 0, 0, true, chronology.Tick(0)
	lookBack := !a.sortedDisjoint || !b.sortedDisjoint
	for i < len(a.ivs) || j < len(b.ivs) {
		var iv interval.Interval
		switch {
		case i >= len(a.ivs):
			iv = b.ivs[j]
			j++
		case j >= len(b.ivs):
			iv = a.ivs[i]
			i++
		case a.ivs[i] == b.ivs[j]:
			iv = a.ivs[i]
			i, j = i+1, j+1
		case less(a.ivs[i], b.ivs[j]):
			iv = a.ivs[i]
			i++
		default:
			iv = b.ivs[j]
			j++
		}
		if lookBack && len(out) > 0 && out[len(out)-1] == iv {
			continue
		}
		if len(out) > 0 && iv.Lo <= prevHi {
			sd = false
		}
		prevHi = iv.Hi
		out = append(out, iv)
	}
	return &Calendar{gran: a.gran, ivs: out, sortedDisjoint: sd}, nil
}

func less(x, y interval.Interval) bool {
	return x.Lo < y.Lo || x.Lo == y.Lo && x.Hi < y.Hi
}

// Diff implements the calendar "-" operator: each element of a has b's
// covered ticks removed, splitting where necessary; surviving pieces stay
// separate elements. One linear merge (interval.Set.Without) of a's elements
// against b's cached coverage.
func Diff(a, b *Calendar) (*Calendar, error) {
	if err := checkSetOperands("-", a, b); err != nil {
		return nil, err
	}
	out := b.coverage().Without(make([]interval.Interval, 0, len(a.ivs)), a.ivs)
	return piecesOf(a, out), nil
}

// piecesOf wraps the output of Diff or Intersect, grown from a guess of one
// piece per element of a. The result is retained — cached — at its capacity,
// so when more than an eighth of that is unused it moves to a slab that fits.
// The pieces come in a's order: a sorted disjoint a needs no classification
// scan.
func piecesOf(a *Calendar, out []interval.Interval) *Calendar {
	if cap(out)-len(out) > cap(out)/8 {
		out = slices.Clone(out)
	}
	return newLeaf(a.gran, out, a.sortedDisjoint)
}

// Intersect implements the "intersects" operator of the calendar scripts:
// the pieces of each element of a covered by b, via the same merge as Diff
// (interval.Set.Within) against b's cached coverage. Note this is distinct
// from the overlaps listop — {LDOM:intersects:HOLIDAYS} in §3.3 yields the
// order-1 calendar of days that are both.
func Intersect(a, b *Calendar) (*Calendar, error) {
	if err := checkSetOperands("intersects", a, b); err != nil {
		return nil, err
	}
	out := b.coverage().Within(make([]interval.Interval, 0, len(a.ivs)), a.ivs)
	return piecesOf(a, out), nil
}

// ClipToInterval restricts an order-1 calendar to the parts of its elements
// inside iv, dropping elements that fall entirely outside. Evaluation plans
// use this to honor generation windows and lifespans.
func ClipToInterval(c *Calendar, iv interval.Interval) (*Calendar, error) {
	if err := iv.Check(); err != nil {
		return nil, err
	}
	return ForeachInterval(c, interval.Overlaps, true, iv)
}
