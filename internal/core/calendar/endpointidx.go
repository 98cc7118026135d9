package calendar

import (
	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// This file holds the sweep kernels: the hot path under every windowed
// foreach and set operation once both operands have the sorted disjoint shape
// of generated calendars. Following Piatov, Helmer, Dignös and Persia
// ("Cache-Efficient Sweeping-Based Interval Joins for Extended Allen Relation
// Predicates"), a foreach is a merge of monotone cursors over a gapless array
// it never leaves: the calendar's own interval slab — there is no second copy
// of the bounds. The result is extents over that same slab; only the groups
// strict trimming rewrites are copied, into one exact-size slab.

// coverage returns the calendar's covered ticks as an interval.Set — the
// point-set normal form the set operators merge against — building and caching
// it on first use. For a calendar of adjacent units (WEEKS in day ticks) it
// collapses to a single span, so a Diff/Intersect against it is O(len(a))
// instead of O(len(a)+len(b)); a sorted disjoint calendar with no adjacent
// elements (HOLIDAYS) shares its own slab with the set. The double-build race
// is benign: both goroutines construct identical immutable sets and
// CompareAndSwap keeps exactly one.
func (c *Calendar) coverage() *interval.Set {
	if s := c.cov.Load(); s != nil {
		return s
	}
	set := c.ToSet()
	if !c.cov.CompareAndSwap(nil, &set) {
		return c.cov.Load()
	}
	return &set
}

// Contains reports whether tick t lies inside some leaf interval of the
// calendar (any order): a binary search over the cached coverage, so a
// per-row membership test never re-flattens or re-normalizes the calendar.
// Tick 0 does not exist and is never contained, even by a span that crosses
// it.
func (c *Calendar) Contains(t chronology.Tick) bool { return c.coverage().Contains(t) }

// sweepExtents is the merge loop: one pass over c's intervals xs computing,
// for each arg element ys[k], the extent of its matching run under op. Every
// cursor only moves forward (both bounds of a sorted disjoint list strictly
// increase, and ys is sorted disjoint too, so run boundaries are monotone in
// k); the loop writes ext in place — zero allocations. A run that strict
// foreach must rewrite at a boundary is marked by storing ^first, which is
// negative; the return value is the total length of the marked runs, what the
// fill pass must copy.
func sweepExtents(xs []interval.Interval, op interval.ListOp, strict bool, ys []interval.Interval, ext []extent) int {
	n := len(xs)
	need := 0
	switch op {
	case interval.Overlaps:
		s, e := 0, 0
		for k, y := range ys {
			for s < n && xs[s].Hi < y.Lo {
				s++
			}
			if e < s {
				e = s
			}
			for e < n && xs[e].Lo <= y.Hi {
				e++
			}
			ext[k] = extent{first: s, n: e - s}
			// Only the first run element can start before y and only the
			// last can end after it (their neighbors would otherwise
			// overlap), so strict trimming touches at most the boundaries.
			if strict && e > s && (xs[s].Lo < y.Lo || xs[e-1].Hi > y.Hi) {
				ext[k].first = ^s
				need += e - s
			}
		}

	case interval.During:
		// during needs no per-element filter at all: the matches are
		// exactly the indices with lo ≥ y.Lo and hi ≤ y.Hi, an index-range
		// intersection of two monotone cursors. Strict trimming is the
		// identity (every match is inside y), so runs are always shared.
		s, e := 0, 0
		for k, y := range ys {
			for s < n && xs[s].Lo < y.Lo {
				s++
			}
			for e < n && xs[e].Hi <= y.Hi {
				e++
			}
			ext[k] = extent{first: s, n: max(e-s, 0)}
		}

	case interval.Meets:
		// Upper bounds strictly increase, so at most one element can end
		// exactly at y.Lo.
		m := 0
		for k, y := range ys {
			for m < n && xs[m].Hi < y.Lo {
				m++
			}
			ext[k] = extent{first: m}
			if m < n && xs[m].Hi == y.Lo {
				ext[k].n = 1
				// Strict keeps x∩y = (y.Lo, y.Lo); a copy is needed unless
				// x already is that point.
				if strict && xs[m].Lo < y.Lo {
					ext[k].first = ^m
					need++
				}
			}
		}

	case interval.Before:
		j := 0
		for k, y := range ys {
			for j < n && xs[j].Hi <= y.Lo {
				j++
			}
			ext[k] = extent{n: j}
			// The prefix's final element is the only one that can touch y
			// (at exactly the tick y.Lo); strict rewrites it to that point,
			// unless it already is that point.
			if strict && j > 0 && xs[j-1].Hi == y.Lo && xs[j-1].Lo < y.Lo {
				ext[k].first = ^0
				need += j
			}
		}

	case interval.BeforeEquals:
		jlo, jhi := 0, 0
		for k, y := range ys {
			for jlo < n && xs[jlo].Lo <= y.Lo {
				jlo++
			}
			for jhi < n && xs[jhi].Hi <= y.Hi {
				jhi++
			}
			j := min(jlo, jhi)
			ext[k] = extent{n: j}
			// Only the final prefix element can reach into y, and one that
			// starts with y is wholly inside it.
			if strict && j > 0 && xs[j-1].Hi >= y.Lo && xs[j-1].Lo < y.Lo {
				ext[k].first = ^0
				need += j
			}
		}
	}
	return need
}

// foreachSweepEndpoint evaluates foreach over two sorted disjoint interval
// lists in at most three allocations whatever the group count: the extents of
// sweepExtents over c's own slab, one slab sized exactly to the runs strict
// trimming rewrites, the result.
func foreachSweepEndpoint(c *Calendar, op interval.ListOp, strict bool, arg *Calendar) *Calendar {
	xs, ys := c.ivs, arg.ivs
	out := &Calendar{gran: c.gran, ivs: xs, ext: make([]extent, len(ys)), sortedDisjoint: true}
	need := sweepExtents(xs, op, strict, ys, out.ext)
	if need == 0 {
		return out
	}
	out.rewritten = make([]interval.Interval, 0, need)
	for k := range out.ext {
		e := &out.ext[k]
		if e.first >= 0 {
			continue
		}
		// Strict keeps x∩y where it is not empty. Only a run's first and last
		// elements can reach outside y; for the before operators the first is
		// wholly before y and stays as it is.
		first, mark := ^e.first, len(out.rewritten)
		out.rewritten = append(out.rewritten, xs[first:first+e.n]...)
		out.rewritten[mark] = cutTo(out.rewritten[mark], ys[k])
		out.rewritten[mark+e.n-1] = cutTo(out.rewritten[mark+e.n-1], ys[k])
		e.first = len(xs) + mark
	}
	// Cut runs of overlaps and meets follow one another; rewritten < and <=
	// prefixes repeat their elements.
	out.sortedDisjoint = disjointSorted(out.rewritten)
	return out
}
