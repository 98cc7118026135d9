package calendar

import (
	"sort"
	"sync"
	"sync/atomic"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// This file holds the endpoint-index sweep kernels: the hot path under every
// windowed foreach and set operation once both operands have the sorted
// disjoint shape of generated calendars.
//
// Following Piatov, Helmer, Dignös and Persia ("Cache-Efficient
// Sweeping-Based Interval Joins for Extended Allen Relation Predicates"),
// the interval list is lowered once into two flat gapless []Tick arrays —
// all lower bounds, then all upper bounds, carved from a single backing
// allocation. A cursor advancing over one bound array touches 8 bytes per
// element instead of the 16-byte Interval struct, halving memory traffic,
// and the arrays are reused across every subsequent sweep because the index
// is cached on the Calendar (calendars are immutable). The kernels
// themselves are two-pass: a merge loop over the endpoint arrays that only
// advances monotone cursors and records per-group extents into a pooled
// arena (zero allocations), then a fill pass that shares sub-slices of the
// original interval list wherever the group is an untrimmed contiguous run
// and bulk-copies into one exact-size slab otherwise.

// epIndex is the flat endpoint index of an order-1 calendar.
type epIndex struct {
	// lo and hi hold the interval bounds as two flat arrays carved from one
	// backing allocation; both strictly increase. They are nil unless the
	// calendar is sortedDisjoint (the shape the sweep kernels require).
	lo, hi []chronology.Tick

	// cov lazily caches the fused point-set coverage (see covIndex); built
	// on the first Diff/Intersect against this calendar as operand b, or the
	// first Contains.
	cov atomic.Pointer[covIndex]
}

// covIndex is a calendar's covered ticks as flat sorted bound arrays with
// adjacent-in-tick-space spans fused — the point-set normal form the set
// operators merge against. For a calendar of adjacent units (WEEKS in day
// ticks) this collapses to a single span, so a Diff/Intersect against it is
// O(len(a)) instead of O(len(a)+len(b)).
type covIndex struct {
	lo, hi []chronology.Tick
}

// epindex returns the calendar's endpoint index, building and caching it on
// first use. The double-build race is benign: both goroutines construct
// identical immutable indexes and CompareAndSwap keeps exactly one.
func (c *Calendar) epindex() *epIndex {
	if p := c.idx.Load(); p != nil {
		return p
	}
	ix := buildEpIndex(c)
	if !c.idx.CompareAndSwap(nil, ix) {
		ix = c.idx.Load()
	}
	return ix
}

// PrimeIndex eagerly builds the endpoint index of an order-1 calendar so
// later sweeps over it never pay the lowering pass. The plan executor primes
// a derived calendar before publishing it to the materialization cache: the
// cached value keeps its index alongside the interval slice for as long as it
// lives.
func (c *Calendar) PrimeIndex() {
	if c != nil && len(c.subs) == 0 {
		c.epindex()
	}
}

func buildEpIndex(c *Calendar) *epIndex {
	ix := &epIndex{}
	if c.sortedDisjoint && len(c.ivs) > 0 {
		n := len(c.ivs)
		buf := make([]chronology.Tick, 2*n)
		lo, hi := buf[:n:n], buf[n:]
		for i, iv := range c.ivs {
			lo[i] = iv.Lo
			hi[i] = iv.Hi
		}
		ix.lo, ix.hi = lo, hi
	}
	return ix
}

// covindex returns the calendar's fused coverage, building and caching it on
// first use (same benign race as epindex).
func (c *Calendar) covindex() *covIndex {
	ix := c.epindex()
	if cv := ix.cov.Load(); cv != nil {
		return cv
	}
	cv := buildCovIndex(c)
	if !ix.cov.CompareAndSwap(nil, cv) {
		cv = ix.cov.Load()
	}
	return cv
}

// Contains reports whether tick t lies inside some leaf interval of the
// calendar (any order): ToSet().Contains(t) as a binary search over the
// cached fused coverage, so a per-row membership test never re-flattens or
// re-normalizes the calendar. Tick 0 does not exist and is never contained,
// even by a span that crosses it.
func (c *Calendar) Contains(t chronology.Tick) bool {
	if t == 0 {
		return false
	}
	cv := c.covindex()
	i := sort.Search(len(cv.hi), func(i int) bool { return cv.hi[i] >= t })
	return i < len(cv.hi) && cv.lo[i] <= t
}

func buildCovIndex(c *Calendar) *covIndex {
	ivs := c.ivs
	if !c.sortedDisjoint {
		ivs = c.ToSet().Intervals()
	}
	// Count fused spans, then fill two flat arrays from one allocation.
	// (The ToSet path is already fused; the loop is then a straight copy.)
	spans := 0
	for i := range ivs {
		if i == 0 || ivs[i].Lo != chronology.NextTick(ivs[i-1].Hi) {
			spans++
		}
	}
	cv := &covIndex{}
	if spans > 0 {
		buf := make([]chronology.Tick, 2*spans)
		lo, hi := buf[:spans:spans], buf[spans:]
		k := -1
		for i, iv := range ivs {
			if i == 0 || iv.Lo != chronology.NextTick(ivs[i-1].Hi) {
				k++
				lo[k] = iv.Lo
			}
			hi[k] = iv.Hi
		}
		cv.lo, cv.hi = lo, hi
	}
	return cv
}

// runExtent records one arg element's matching run in c: the run starts at
// index first and spans n elements; trim is set when strict foreach must
// rewrite a boundary element, which forces the fill pass to copy the run
// instead of sharing it.
type runExtent struct {
	first, n int
	trim     bool
}

// sweepArena is the pooled scratch for the extent pass, reused across calls
// so the steady-state merge loop performs no allocation at all.
type sweepArena struct {
	ext []runExtent
}

var sweepArenas = sync.Pool{New: func() any { return new(sweepArena) }}

func (a *sweepArena) extents(n int) []runExtent {
	if cap(a.ext) < n {
		a.ext = make([]runExtent, n)
	}
	return a.ext[:n]
}

// sweepExtents is the merge loop: one pass over the flat endpoint arrays
// computing, for each arg element ys[k], the extent of its matching run in
// c under op. Every cursor only moves forward (both bound arrays strictly
// increase, and ys is sorted disjoint, so run boundaries are monotone in k);
// the loop reads two flat []Tick arrays and writes ext in place — zero
// allocations. It returns the total number of intervals the fill pass must
// copy (trimmed runs only; untrimmed runs are shared, not copied).
func sweepExtents(lo, hi []chronology.Tick, op interval.ListOp, strict bool, ys []interval.Interval, ext []runExtent) int {
	n := len(lo)
	slab := 0
	switch op {
	case interval.Overlaps:
		s, e := 0, 0
		for k := range ys {
			y := ys[k]
			for s < n && hi[s] < y.Lo {
				s++
			}
			if e < s {
				e = s
			}
			for e < n && lo[e] <= y.Hi {
				e++
			}
			ext[k] = runExtent{first: s, n: e - s}
			// Only the first run element can start before y and only the
			// last can end after it (their neighbors would otherwise
			// overlap), so strict trimming touches at most the boundaries.
			if strict && e > s && (lo[s] < y.Lo || hi[e-1] > y.Hi) {
				ext[k].trim = true
				slab += e - s
			}
		}

	case interval.During:
		// during needs no per-element filter at all: the matches are
		// exactly the indices with lo ≥ y.Lo and hi ≤ y.Hi, an index-range
		// intersection of two monotone cursors. Strict trimming is the
		// identity (every match is inside y), so runs are always shared.
		s, e := 0, 0
		for k := range ys {
			y := ys[k]
			for s < n && lo[s] < y.Lo {
				s++
			}
			for e < n && hi[e] <= y.Hi {
				e++
			}
			if e > s {
				ext[k] = runExtent{first: s, n: e - s}
			} else {
				ext[k] = runExtent{first: s}
			}
		}

	case interval.Meets:
		// Upper bounds strictly increase, so at most one element can end
		// exactly at y.Lo.
		m := 0
		for k := range ys {
			y := ys[k]
			for m < n && hi[m] < y.Lo {
				m++
			}
			if m < n && hi[m] == y.Lo {
				ext[k] = runExtent{first: m, n: 1}
				// Strict keeps x∩y = (y.Lo, y.Lo); a copy is needed unless
				// x already is that point.
				if strict && lo[m] < y.Lo {
					ext[k].trim = true
					slab++
				}
			} else {
				ext[k] = runExtent{first: m}
			}
		}

	case interval.Before:
		j := 0
		for k := range ys {
			y := ys[k]
			for j < n && hi[j] <= y.Lo {
				j++
			}
			ext[k] = runExtent{n: j}
			// The prefix's final element is the only one that can touch y
			// (at exactly the tick y.Lo); strict rewrites it to that point.
			if strict && j > 0 && hi[j-1] == y.Lo {
				ext[k].trim = true
				slab += j
			}
		}

	case interval.BeforeEquals:
		jlo, jhi := 0, 0
		for k := range ys {
			y := ys[k]
			for jlo < n && lo[jlo] <= y.Lo {
				jlo++
			}
			for jhi < n && hi[jhi] <= y.Hi {
				jhi++
			}
			j := jlo
			if jhi < j {
				j = jhi
			}
			ext[k] = runExtent{n: j}
			// Only the final prefix element can reach into y.
			if strict && j > 0 && hi[j-1] >= y.Lo {
				ext[k].trim = true
				slab += j
			}
		}
	}
	return slab
}

// foreachSweepEndpoint evaluates foreach over two sorted disjoint interval
// lists on c's endpoint index. Allocation profile per call (steady state,
// index built): one interval slab sized exactly to the trimmed runs, one
// []Calendar leaf block, one []*Calendar sub list, and the result — the
// merge loop itself allocates nothing (see sweepExtents).
func foreachSweepEndpoint(c *Calendar, op interval.ListOp, strict bool, arg *Calendar) *Calendar {
	ix := c.epindex()
	ys := arg.ivs
	arena := sweepArenas.Get().(*sweepArena)
	ext := arena.extents(len(ys))
	slabNeed := sweepExtents(ix.lo, ix.hi, op, strict, ys, ext)

	var slab []interval.Interval
	if slabNeed > 0 {
		slab = make([]interval.Interval, 0, slabNeed)
	}
	leaves := make([]Calendar, len(ys))
	subs := make([]*Calendar, len(ys))
	prefix := op == interval.Before || op == interval.BeforeEquals
	for k := range ys {
		e := ext[k]
		var run []interval.Interval
		switch {
		case !e.trim:
			// Untrimmed groups share c's backing array (capacity-clamped);
			// for the before operators that is the paper's shared prefix.
			run = c.ivs[e.first : e.first+e.n : e.first+e.n]
		case prefix:
			// Strict before/<=: copy the prefix and rewrite its final
			// element, the only one that can reach into y.
			y := ys[k]
			mark := len(slab)
			slab = append(slab, c.ivs[:e.n]...)
			last := &slab[mark+e.n-1]
			if op == interval.Before {
				*last = interval.Interval{Lo: y.Lo, Hi: y.Lo}
			} else {
				last.Lo = y.Lo
			}
			run = slab[mark:len(slab):len(slab)]
		default:
			// Strict overlaps/meets with a boundary reaching outside y:
			// copy the run and clamp the first and last elements to y.
			y := ys[k]
			mark := len(slab)
			slab = append(slab, c.ivs[e.first:e.first+e.n]...)
			if head := &slab[mark]; head.Lo < y.Lo {
				head.Lo = y.Lo
			}
			if tail := &slab[mark+e.n-1]; tail.Hi > y.Hi {
				tail.Hi = y.Hi
			}
			run = slab[mark:len(slab):len(slab)]
		}
		leaves[k] = Calendar{gran: c.gran, ivs: run, sortedDisjoint: true}
		subs[k] = &leaves[k]
	}
	sweepArenas.Put(arena)
	return &Calendar{gran: c.gran, subs: subs}
}

// foreachSelfJoin is the self-join fast path: both operands are the same
// interval list (common when a grouping derives both sides from one cached
// calendar). Under disjointness every group has a closed form on the
// diagonal — no merge loop and no interval copies at all:
//
//   - overlaps/during: element i matches only itself;
//   - meets: element i matches itself iff it is a point (hi == lo);
//   - <: the prefix before i, plus i itself iff it is a point;
//   - <=: the prefix through i.
//
// Strict trimming is the identity in every case (each match is inside, or
// touches, its own group interval), so all groups share c's backing array.
func foreachSelfJoin(c *Calendar, op interval.ListOp, strict bool) *Calendar {
	ivs := c.ivs
	leaves := make([]Calendar, len(ivs))
	subs := make([]*Calendar, len(ivs))
	for i := range ivs {
		var run []interval.Interval
		switch op {
		case interval.Overlaps, interval.During:
			run = ivs[i : i+1 : i+1]
		case interval.Meets:
			if ivs[i].Lo == ivs[i].Hi {
				run = ivs[i : i+1 : i+1]
			}
		case interval.Before:
			j := i
			if ivs[i].Lo == ivs[i].Hi {
				j = i + 1
			}
			run = ivs[:j:j]
		case interval.BeforeEquals:
			run = ivs[: i+1 : i+1]
		}
		leaves[i] = Calendar{gran: c.gran, ivs: run, sortedDisjoint: true}
		subs[i] = &leaves[i]
	}
	return &Calendar{gran: c.gran, subs: subs}
}

// sameBacking reports whether c and arg are the same calendar or order-1
// views over the same backing interval array — the shapes the plan layer
// produces when both foreach operands resolve to one cached materialization.
func sameBacking(c, arg *Calendar) bool {
	if c == arg {
		return true
	}
	return len(c.ivs) > 0 && len(c.ivs) == len(arg.ivs) && &c.ivs[0] == &arg.ivs[0]
}
