// Package calendar implements the calendar algebra of Chandra, Segev and
// Stonebraker (ICDE 1994): calendars as structured (order-n) collections of
// intervals, the strict and relaxed foreach operators (dicing), the selection
// operator (slicing), calendar set operators, and the generate / caloperate
// functions that relate the basic calendars.
//
// The representation is flat at every order. An order-1 calendar is one
// interval slice; above that a calendar is one interval slab, one extent per
// innermost group and, from order 3 up, one slice of element counts per level
// of nesting — so dicing writes offsets, slicing is index arithmetic over
// them, and flattening a grouping whose extents tile the slab is a view. There
// is no tree of sub-calendars. Calendars are immutable, which is what makes it
// safe for a grouping, its Flatten view, its selections and the operand they
// were cut from to share a slab or a level.
package calendar

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"unsafe"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// A Calendar is a structured collection of intervals (§3.1). An order-1
// calendar is a list of intervals; an order-n calendar is a list of order
// n-1 calendars. All intervals are expressed in ticks of one granularity.
//
// Calendars are immutable once built; operators return new calendars.
type Calendar struct {
	gran chronology.Granularity

	// ivs is the element list of an order-1 calendar and the interval slab
	// of a higher-order one (a sweep's slab is its operand's own slice, not a
	// copy); ext holds one extent per innermost group — a list of intervals —
	// and is nil exactly at order 1.
	ivs []interval.Interval
	ext []extent
	// rewritten holds, back to back, the groups of a strict foreach whose
	// boundary elements were cut to the group's interval; an extent whose
	// first is at or past len(ivs) indexes it at first-len(ivs).
	rewritten []interval.Interval
	// up holds the nesting above the groups, outermost level first: up[j][i]
	// is how many elements of the level below (up[j+1], or ext under the last)
	// element i of level j holds. Each level tiles the one below in order, so
	// a count is all an element needs; order n has n-2 levels.
	up [][]int

	// sortedDisjoint caches whether ivs (and, above order 1, rewritten) is
	// sorted by lower bound and pairwise disjoint — the shape of every
	// generated calendar, and the precondition for the foreach merge-sweep
	// kernels. Computed once at construction so per-call operators never
	// re-scan; conservative (true implies the property, false only means it
	// was not established).
	sortedDisjoint bool

	// cov lazily caches the point-set coverage (see coverage) — built on the
	// first Diff/Intersect against this calendar as operand b, or the first
	// Contains, and kept for as long as the calendar lives.
	cov atomic.Pointer[interval.Set]
}

// extent locates one group of an order-2 calendar: n intervals starting at
// index first of the slab (or of rewritten, see Calendar).
type extent struct {
	first, n int
}

// newLeaf builds an order-1 calendar around ivs (not copied). Its shape is
// classified once, here — by one scan, unless the caller knows ivs to be
// sorted disjoint (the pieces of a sorted disjoint list, say).
func newLeaf(gran chronology.Granularity, ivs []interval.Interval, sortedDisjoint bool) *Calendar {
	return &Calendar{gran: gran, ivs: ivs, sortedDisjoint: sortedDisjoint || disjointSorted(ivs)}
}

// FromIntervals builds an order-1 calendar. Intervals must individually be
// valid and be listed in non-decreasing order of lower bound (a calendar is
// an ordered collection; it need not be disjoint).
func FromIntervals(gran chronology.Granularity, ivs []interval.Interval) (*Calendar, error) {
	if !gran.Valid() {
		return nil, fmt.Errorf("calendar: invalid granularity %v", gran)
	}
	sd := true
	for i, iv := range ivs {
		if err := iv.Check(); err != nil {
			return nil, fmt.Errorf("calendar: element %d: %w", i, err)
		}
		if i > 0 && ivs[i-1].Lo > iv.Lo {
			return nil, fmt.Errorf("calendar: elements out of order at %d: %v after %v", i, iv, ivs[i-1])
		}
		if i > 0 && ivs[i-1].Hi >= iv.Lo {
			sd = false
		}
	}
	cp := make([]interval.Interval, len(ivs))
	copy(cp, ivs)
	return &Calendar{gran: gran, ivs: cp, sortedDisjoint: sd}, nil
}

// MustFromIntervals is FromIntervals for inputs known valid; it panics on
// error and is intended for tests and examples.
func MustFromIntervals(gran chronology.Granularity, ivs ...interval.Interval) *Calendar {
	c, err := FromIntervals(gran, ivs)
	if err != nil {
		panic(err)
	}
	return c
}

// FromPoints builds an order-1 calendar of point intervals (t,t) — the shape
// of explicitly stored calendars such as HOLIDAYS. Ticks are sorted and
// deduplicated, so callers may list them in any order.
func FromPoints(gran chronology.Granularity, ticks []chronology.Tick) (*Calendar, error) {
	sorted := make([]chronology.Tick, len(ticks))
	copy(sorted, ticks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ivs := make([]interval.Interval, 0, len(sorted))
	for i, t := range sorted {
		if i > 0 && t == sorted[i-1] {
			continue
		}
		iv, err := interval.New(t, t)
		if err != nil {
			return nil, err
		}
		ivs = append(ivs, iv)
	}
	return FromIntervals(gran, ivs)
}

// FromSubs builds an order n+1 calendar from order-n sub-calendars, which
// must all share a granularity and order. Their leaves are copied into one
// slab, group by group, under one more level.
func FromSubs(subs []*Calendar) (*Calendar, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("calendar: order>1 calendar needs at least one sub-calendar")
	}
	g := subs[0].gran
	ord := subs[0].Order()
	total, groups := 0, 0
	for i, s := range subs {
		if s == nil {
			return nil, fmt.Errorf("calendar: nil sub-calendar at %d", i)
		}
		if s.gran != g {
			return nil, fmt.Errorf("calendar: sub-calendar %d has granularity %v, want %v", i, s.gran, g)
		}
		if s.Order() != ord {
			return nil, fmt.Errorf("calendar: sub-calendar %d has order %d, want %d", i, s.Order(), ord)
		}
		total += s.Cardinality()
		groups += max(len(s.ext), 1) // an order-1 sub becomes one group
	}
	out := &Calendar{gran: g, ivs: make([]interval.Interval, 0, total), ext: make([]extent, 0, groups)}
	if ord > 1 {
		out.up = make([][]int, ord-1)
	}
	for _, s := range subs {
		s.Leaves(func(run []interval.Interval) bool {
			out.ext = append(out.ext, extent{first: len(out.ivs), n: len(run)})
			out.ivs = append(out.ivs, run...)
			return true
		})
		if ord > 1 {
			out.up[0] = append(out.up[0], s.Len())
		}
		for j, level := range s.up {
			out.up[j+1] = append(out.up[j+1], level...)
		}
	}
	out.sortedDisjoint = disjointSorted(out.ivs)
	return out, nil
}

// Empty returns an empty order-1 calendar of the given granularity.
func Empty(gran chronology.Granularity) *Calendar {
	return &Calendar{gran: gran, sortedDisjoint: true}
}

// Granularity returns the tick unit of the calendar's intervals.
func (c *Calendar) Granularity() chronology.Granularity { return c.gran }

// Order returns the depth of the collection: 1 for a list of intervals, n+1
// for a list of order-n calendars.
func (c *Calendar) Order() int {
	if c.ext == nil {
		return 1
	}
	return 2 + len(c.up)
}

// Len returns the number of top-level elements (intervals, groups or
// sub-calendars).
func (c *Calendar) Len() int {
	switch {
	case len(c.up) > 0:
		return len(c.up[0])
	case c.ext != nil:
		return len(c.ext)
	}
	return len(c.ivs)
}

// SortedDisjoint reports whether the calendar is order 1, known sorted disjoint.
func (c *Calendar) SortedDisjoint() bool { return c.ext == nil && c.sortedDisjoint }

// Group returns the k-th (0-based) innermost group — at order 2, the k-th
// element: a capacity-clamped view of the slab, which must not be modified. It
// is how every reader walks an order-2 calendar, and allocates nothing.
func (c *Calendar) Group(k int) []interval.Interval {
	return c.run(c.ext[k].first, c.ext[k].n)
}

// run resolves n slab positions starting at first, which must all lie in ivs
// or all in rewritten.
func (c *Calendar) run(first, n int) []interval.Interval {
	if i := first - len(c.ivs); i >= 0 {
		return c.rewritten[i : i+n : i+n]
	}
	return c.ivs[first : first+n : first+n]
}

// Leaves calls yield with each run of leaf intervals, in order — the element
// list of an order-1 calendar, each innermost group of a higher-order one —
// until yield returns false, and reports whether it never did. Runs are views
// and must not be modified.
func (c *Calendar) Leaves(yield func(run []interval.Interval) bool) bool {
	if c.ext == nil {
		return yield(c.ivs)
	}
	for k := range c.ext {
		if !yield(c.Group(k)) {
			return false
		}
	}
	return true
}

// IsEmpty reports whether the calendar has no leaf interval: the null
// calendar, which conditions in the expression language treat as false
// (§3.3). Foreach drops the paper's ε, so a grouping whose groups are all
// empty — {{},{}} — is as null as {}.
func (c *Calendar) IsEmpty() bool {
	return c.Leaves(func(run []interval.Interval) bool { return len(run) == 0 })
}

// Intervals returns the intervals of an order-1 calendar. It panics on
// higher-order calendars; use Group, Leaves or Flatten.
func (c *Calendar) Intervals() []interval.Interval {
	if c.Order() != 1 {
		panic(fmt.Sprintf("calendar: Intervals on order-%d calendar", c.Order()))
	}
	return c.ivs
}

// Interval returns the i-th (0-based) interval of an order-1 calendar.
func (c *Calendar) Interval(i int) interval.Interval { return c.Intervals()[i] }

// Flatten concatenates all leaf intervals into a single order-1 calendar,
// preserving order. When the groups of a calendar tile a contiguous range of
// its slab in order — every during/overlaps grouping of generated
// calendars, every selection result — the result is a view of that range, not
// a copy.
func (c *Calendar) Flatten() *Calendar {
	if c.Order() == 1 {
		return c
	}
	// Where the groups start, and whether each begins where the last ended.
	start, next, total, tiles := 0, 0, 0, true
	for _, e := range c.ext {
		if e.n == 0 {
			continue
		}
		if total == 0 {
			start = e.first
		}
		tiles = tiles && e.first == start+total
		next, total = e.first+e.n, total+e.n
	}
	if tiles && (start >= len(c.ivs) || next <= len(c.ivs)) {
		return &Calendar{gran: c.gran, ivs: c.run(start, total), sortedDisjoint: c.sortedDisjoint}
	}
	ivs := make([]interval.Interval, 0, c.Cardinality())
	c.Leaves(func(run []interval.Interval) bool {
		ivs = append(ivs, run...)
		return true
	})
	return newLeaf(c.gran, ivs, false)
}

// ToSet returns the normalized point set covered by the calendar's leaves. A
// sorted disjoint calendar needs no sort, and shares its slab with the set
// when no two elements are adjacent.
func (c *Calendar) ToSet() interval.Set {
	flat := c.Flatten()
	if flat.sortedDisjoint {
		return interval.SortedSet(flat.ivs)
	}
	return interval.NewSet(flat.ivs...)
}

// Hull returns the smallest interval covering every leaf.
func (c *Calendar) Hull() (interval.Interval, bool) {
	return c.ToSet().Hull()
}

// Cardinality returns the total number of leaf intervals.
func (c *Calendar) Cardinality() int {
	n := 0
	c.Leaves(func(run []interval.Interval) bool {
		n += len(run)
		return true
	})
	return n
}

// SizeBytes returns the bytes the calendar keeps reachable: its header, its
// interval slab, its extents, its levels and its rewritten groups, each at
// capacity — O(levels) at every order. A slab or a level shared with another
// calendar is charged to each holder — whichever outlives the other does
// retain it — and a view is charged for the range it spans. The lazily built
// coverage set is not counted.
func (c *Calendar) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*c)) +
		int64(unsafe.Sizeof(interval.Interval{}))*int64(cap(c.ivs)+cap(c.rewritten)) +
		int64(unsafe.Sizeof(extent{}))*int64(cap(c.ext)) +
		int64(unsafe.Sizeof([]int(nil)))*int64(cap(c.up))
	for _, level := range c.up {
		n += int64(unsafe.Sizeof(int(0))) * int64(cap(level))
	}
	return n
}

// Equal reports structural equality: same granularity, order, and elements.
func (c *Calendar) Equal(d *Calendar) bool {
	if c == nil || d == nil {
		return c == d
	}
	if c.gran != d.gran || c.Order() != d.Order() || len(c.ext) != len(d.ext) {
		return false
	}
	for j := range c.up {
		if !slices.Equal(c.up[j], d.up[j]) {
			return false
		}
	}
	if c.ext == nil {
		return slices.Equal(c.ivs, d.ivs)
	}
	for k := range c.ext {
		if !slices.Equal(c.Group(k), d.Group(k)) {
			return false
		}
	}
	return true
}

// Digest is a 64-bit hash of what Equal compares: granularity, nesting and
// leaf intervals. Equal calendars have equal digests.
func (c *Calendar) Digest() uint64 {
	h := Mix(uint64(c.gran), uint64(c.Order()))
	for _, level := range c.up {
		h = Mix(h, uint64(len(level)))
		for _, n := range level {
			h = Mix(h, uint64(n))
		}
	}
	c.Leaves(func(run []interval.Interval) bool {
		h = Mix(h, uint64(len(run)))
		for _, iv := range run {
			h = Mix(Mix(h, uint64(iv.Lo)), uint64(iv.Hi))
		}
		return true
	})
	return h
}

// Mix folds x into the hash h, the step of Digest. Each step is a bijection
// of h, so sequences that differ in one word never collide.
func Mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// String renders the calendar in the paper's nested-brace notation, e.g.
// {(1,31),(32,59)} or {{(4,10),(11,17)},{(32,38)}}.
func (c *Calendar) String() string {
	var b strings.Builder
	c.render(&b)
	return b.String()
}

func (c *Calendar) render(b *strings.Builder) {
	if c.ext == nil {
		b.WriteByte('{')
		renderRun(b, c.ivs)
		b.WriteByte('}')
		return
	}
	// next[j] is the first element of level j not yet written; the level
	// under the last of up is the groups.
	next := make([]int, len(c.up)+1)
	var list func(level, n int)
	list = func(level, n int) {
		b.WriteByte('{')
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			k := next[level]
			next[level]++
			if level < len(c.up) {
				list(level+1, c.up[level][k])
				continue
			}
			b.WriteByte('{')
			renderRun(b, c.Group(k))
			b.WriteByte('}')
		}
		b.WriteByte('}')
	}
	list(0, c.Len())
}

func renderRun(b *strings.Builder, run []interval.Interval) {
	for i, iv := range run {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(iv.String())
	}
}

// SingleInterval reports whether c is an order-1 calendar containing exactly
// one interval, in which case the paper treats it interchangeably with that
// interval (e.g. Jan-1993 ≡ {(1,31)}).
func (c *Calendar) SingleInterval() (interval.Interval, bool) {
	if c.Order() == 1 && len(c.ivs) == 1 {
		return c.ivs[0], true
	}
	return interval.Interval{}, false
}
