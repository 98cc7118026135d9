package periodic

import (
	"math"
	"sort"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// A Patched is an unbounded element list with a finite non-periodic part,
// Bettini, Mascetti & Wang's granularity with exceptions and the shape of the
// paper's business days (weekdays less HOLIDAYS): the elements of Base, less
// the points of Removed, plus the points of Added. Base carries no exceptions
// and is shared (the symbolic memo's lowering of the expression with its
// stored operands taken out); only the two lists belong to one set of stored
// values. Both lists are strictly ascending single ticks, every Removed point
// is an element of Base and no Added point is. With either list non-empty,
// Base is nil or a disjoint point pattern, so the elements are a set of
// points in ascending order.
//
// Element indices are Base's, shifted by the exceptions before: the first
// element at or after tick t has index rank(t), Base's first index at or
// after t less the Removed points before t plus the Added points before t.
type Patched struct {
	Base           *Pattern
	Removed, Added []interval.Interval
}

// Plain reports whether the list has no finite part: it is its base.
func (x Patched) Plain() bool { return len(x.Removed)+len(x.Added) == 0 }

// pointList reports whether p is empty or a disjoint pattern of points.
func pointList(p *Pattern) bool { return p == nil || p.Points() && p.Disjoint() }

// AscendingPoints reports whether ivs are strictly ascending single ticks: a
// finite part, or a stored list that can be one.
func AscendingPoints(ivs []interval.Interval) bool {
	for i, iv := range ivs {
		if iv.Lo != iv.Hi || i > 0 && ivs[i-1].Lo >= iv.Lo {
			return false
		}
	}
	return true
}

// before returns how many points of the ascending list ps start before t.
func before(ps []interval.Interval, t chronology.Tick) int {
	return sort.Search(len(ps), func(i int) bool { return ps[i].Lo >= t })
}

// PointsIn cuts the ascending point list ps to the points starting within
// the tick window.
func PointsIn(ps []interval.Interval, win interval.Interval) []interval.Interval {
	ps = ps[before(ps, win.Lo):]
	return ps[:before(ps, chronology.NextTick(win.Hi))]
}

// firstAt returns p's first element index starting at or after tick t.
func (p *Pattern) firstAt(t chronology.Tick) int64 {
	return p.firstWithLoGE(chronology.OffsetFromTick(t))
}

// rank returns the index of the first element starting at or after tick t.
func (x Patched) rank(t chronology.Tick) int64 {
	r := int64(before(x.Added, t) - before(x.Removed, t))
	if x.Base != nil {
		r += x.Base.firstAt(t)
	}
	return r
}

// IndexRange returns the inclusive range of element indices overlapping the
// tick window; ok is false when none does.
func (x Patched) IndexRange(win interval.Interval) (first, last int64, ok bool) {
	if x.Plain() {
		if x.Base == nil {
			return 0, -1, false
		}
		return x.Base.IndexRange(win)
	}
	first, last = x.rank(win.Lo), x.rank(chronology.NextTick(win.Hi))-1
	return first, last, first <= last
}

// Card returns the number of elements overlapping the tick window.
func (x Patched) Card(win interval.Interval) int64 {
	first, last, ok := x.IndexRange(win)
	if !ok {
		return 0
	}
	return last - first + 1
}

// Walk returns a cursor at element first, from which Next reads the
// elements in order: the one walk of a window, the /expand encoder's and the
// plan executor's (calendar.ExpandWindow).
func (x Patched) Walk(first int64) Cursor {
	i, m, j := x.Base.locate(0, first, x.Removed, x.Added)
	return Cursor{p: x.Base, i: i, rm: x.Removed[m:], add: x.Added[j:]}
}

// NextAfter returns the start tick of the first element starting strictly
// after tick t; ok is false when there is none.
func (x Patched) NextAfter(t chronology.Tick) (start chronology.Tick, ok bool) {
	if x.Plain() && x.Base != nil {
		_, start = x.Base.NextAfter(t)
		return start, true
	}
	q := x.rank(chronology.NextTick(t))
	if x.Base == nil && q >= int64(len(x.Added)) {
		return 0, false
	}
	return x.Base.member(0, math.MaxInt64, q, x.Removed, x.Added).Lo, true
}

// SizeBytes estimates the resident bytes of the finite part; Base is the
// memo's and counted there.
func (x Patched) SizeBytes() int64 {
	const header = 64
	return header + 16*int64(len(x.Removed)+len(x.Added))
}

// locate finds member q of the run of p's elements from index first on, less
// the points of rm, plus the points of add — both ascending, none starting
// before element first (for a whole Patched: first 0 and its full lists).
// It returns the base index i the walk to member q resumes at and the counts
// m of rm and j of add before member q: a Cursor from there reads member q
// first. Every rm point must be an element of p and no add point may be.
func (p *Pattern) locate(first, q int64, rm, add []interval.Interval) (i int64, m, j int) {
	if p == nil {
		return 0, 0, int(q)
	}
	at := func(t chronology.Tick) int64 { return p.firstAt(t) - first }
	rank := func(j int) int64 { return at(add[j].Lo) - int64(before(rm, add[j].Lo)) + int64(j) }
	j = sort.Search(len(add), func(j int) bool { return rank(j) >= q })
	if j < len(add) && rank(j) == q {
		// Member q is add[j]; the walk resumes at the element after it.
		return first + at(add[j].Lo), before(rm, add[j].Lo), j
	}
	// Member q is a base element with j adds before it: the (q−j)-th of the
	// run's elements that rm leaves.
	b := q - int64(j)
	m = sort.Search(len(rm), func(k int) bool { return at(rm[k].Lo)-int64(k) > b })
	return first + b + int64(m), m, j
}

// among returns the points of the ascending list ps that start within the
// elements first through last of p, a disjoint point pattern: those that are
// the run's elements, when ps holds elements of p only.
func (p *Pattern) among(first, last int64, ps []interval.Interval) []interval.Interval {
	if p == nil || first > last || len(ps) == 0 {
		return nil
	}
	lo, _ := p.element(first)
	hi, _ := p.element(last)
	return PointsIn(ps, interval.Interval{Lo: chronology.TickFromOffset(lo), Hi: chronology.TickFromOffset(hi)})
}

// member returns member q of the run of p's elements first through last,
// less the points of rm, plus the points of add (locate's lists), by index
// arithmetic: a group's pick, with no list built.
func (p *Pattern) member(first, last, q int64, rm, add []interval.Interval) interval.Interval {
	i, _, j := p.locate(first, q, rm, add)
	if j < len(add) && (p == nil || i > last || add[j].Lo < p.Interval(i).Lo) {
		return add[j]
	}
	return p.Interval(i)
}

// A Cursor walks a list with exceptions: the elements of p from index i on,
// less those starting at a point of rm, merged in order with the points of
// add. rm and add are ascending, every rm point is an element and no add
// point is; p may be nil.
type Cursor struct {
	p       *Pattern
	i       int64
	rm, add []interval.Interval
}

// Next fills dst with the cursor's next elements, fewer where the list ends,
// and returns them. A run without exceptions is one Fill; elsewhere base
// elements come a Fill of up to 32 at a time and merge with the exceptions.
func (c *Cursor) Next(dst []interval.Interval) []interval.Interval {
	var buf [32]interval.Interval
	n := 0
	for n < len(dst) {
		if c.p == nil { // no base: the adds are all there is
			k := copy(dst[n:], c.add)
			c.add, n = c.add[k:], n+k
			break
		}
		if len(c.rm) == 0 && len(c.add) == 0 {
			c.p.Fill(dst[n:], c.i)
			c.i += int64(len(dst) - n)
			return dst
		}
		base := buf[:]
		c.p.Fill(base, c.i)
		b := 0
		for b < len(base) && n < len(dst) {
			x := chronology.Tick(math.MaxInt64) // the next exception
			if len(c.rm) > 0 {
				x = c.rm[0].Lo
			}
			if len(c.add) > 0 {
				x = min(x, c.add[0].Lo)
			}
			for ; b < len(base) && n < len(dst) && base[b].Lo < x; b, n = b+1, n+1 {
				dst[n] = base[b]
			}
			switch {
			case b == len(base) || n == len(dst):
			case len(c.add) > 0 && c.add[0].Lo == x:
				dst[n], c.add, n = c.add[0], c.add[1:], n+1
			default: // base[b] is the removed point x
				c.rm, b = c.rm[1:], b+1
			}
		}
		c.i += int64(b)
	}
	return dst[:n]
}

// covers reports whether an element of p covers tick t. Both element bounds
// are monotone in the index, so the first element ending at or after t is the
// one starting earliest among those that can; of a pattern of points, it is
// a span of the cycle holding t.
func (p *Pattern) covers(t chronology.Tick) bool {
	if p == nil {
		return false
	}
	x := chronology.OffsetFromTick(t)
	if p.points {
		rel := floorMod(x-p.phase, p.period)
		i := sort.Search(len(p.spans), func(i int) bool { return p.spans[i].Lo >= rel })
		return i < len(p.spans) && p.spans[i].Lo == rel
	}
	lo, _ := p.element(p.firstWithHiGE(x))
	return lo <= x
}

// PatchSet is a set operator — '+' (union), '-' (difference) or '&'
// (intersects) — over lists with finite parts, given base, the operator's
// value on the two bases (the caller's lowering of the stored-free twin).
// Away from the exceptions both operands are their bases, so only the
// exception ticks are decided again: each lands in Removed or Added where the
// operator's verdict on it differs from base's. ok=false unless the operands
// the operator keeps whole are point lists (a removed point would split an
// interval) and so is base.
func PatchSet(x, y Patched, op byte, base *Pattern) (Patched, bool) {
	if x.Plain() && y.Plain() {
		return Patched{Base: base}, true
	}
	if !pointList(base) || !pointList(x.Base) || op == '+' && !pointList(y.Base) {
		return Patched{}, false
	}
	if op == '-' && x.Plain() && y.Base == nil && len(y.Removed) == 0 && base == x.Base {
		// x less points: those of them that are its elements.
		rm := make([]interval.Interval, 0, len(y.Added))
		for _, pt := range y.Added {
			if base.covers(pt.Lo) {
				rm = append(rm, pt)
			}
		}
		return Patched{Base: base, Removed: rm}, true
	}
	out := Patched{Base: base}
	lists := [4][]interval.Interval{x.Removed, x.Added, y.Removed, y.Added}
	for {
		// The next exception tick of any operand.
		t, any := chronology.Tick(math.MaxInt64), false
		for _, l := range lists {
			if len(l) > 0 && l[0].Lo <= t {
				t, any = l[0].Lo, true
			}
		}
		if !any {
			return out, true
		}
		// An operand holds t when it adds it, not when it removes it, and
		// else when its base covers it.
		var at [4]bool
		for k, l := range lists {
			if at[k] = len(l) > 0 && l[0].Lo == t; at[k] {
				lists[k] = l[1:]
			}
		}
		inx := at[1] || !at[0] && x.Base.covers(t)
		iny := at[3] || !at[2] && y.Base.covers(t)
		in := base.covers(t)
		want := inx && iny
		switch op {
		case '+':
			want = inx || iny
		case '-':
			want = inx && !iny
		}
		pt := interval.Interval{Lo: t, Hi: t}
		switch {
		case in && !want:
			out.Removed = append(out.Removed, pt)
		case !in && want:
			out.Added = append(out.Added, pt)
		}
	}
}

// members returns what the group of y under op holds besides its run of
// base elements first through last: gone, the points of rm (Removed or a cut
// of it) among the run, and in, the points of add (a cut of Added) related to
// y, appended to in. Both group walks, SelectPatched and PerGroup, read a
// group's members off these and pick with member.
func (x Patched) members(first, last int64, y interval.Interval, op interval.ListOp, rm, add, in []interval.Interval) (gone, _ []interval.Interval) {
	for _, pt := range add {
		if op.Eval(pt, y) {
			in = append(in, pt)
		}
	}
	return x.Base.among(first, last, rm), in
}

// SelectPatched is ForeachSelect over an x with a finite part (pick nil: the
// flattened grouping, every member), given base, the value over x.Base (the
// caller's lowering of the stored-free twin). Only the groups that an
// exception of x falls in are recomputed (members), and their picks patch
// base's. ok=false unless x and base are point lists, y is disjoint (a point
// falls in one group) and groups by during, overlaps or meets, and every
// recomputed group picks in ascending order.
func SelectPatched(x Patched, y *Pattern, op interval.ListOp, pick func(int) []int, base *Pattern) (Patched, bool) {
	if x.Plain() || y == nil {
		return Patched{Base: base}, true
	}
	if !pointList(x.Base) || !pointList(base) || !y.Disjoint() || op != interval.During && op != interval.Overlaps && op != interval.Meets {
		return Patched{}, false
	}
	if pick == nil {
		pick = every
	}
	offs := map[int64][]int64{} // a member count's picks, as offsets
	picks := func(n int64) ([]int64, bool) {
		o, seen := offs[n]
		if !seen {
			var ok bool
			if o, ok = picked(pick, n); !ok {
				return nil, false
			}
			offs[n] = o
		}
		return o, true
	}
	out := Patched{Base: base}
	var in, old, cur []interval.Interval
	rm, add := x.Removed, x.Added // the exceptions from the next group's on
	for len(rm) > 0 || len(add) > 0 {
		t := chronology.Tick(math.MaxInt64)
		if len(rm) > 0 {
			t = rm[0].Lo
		}
		if len(add) > 0 {
			t = min(t, add[0].Lo)
		}
		// y's element holding t, if any: its group is the one t changes.
		qy := y.lastWithLoLE(chronology.OffsetFromTick(t))
		a, b := y.element(qy)
		past := chronology.NextTick(t)
		if chronology.OffsetFromTick(t) <= b {
			past = chronology.TickFromOffset(b + 1)
			yiv := interval.Interval{Lo: chronology.TickFromOffset(a), Hi: chronology.TickFromOffset(b)}
			first, n := int64(0), int64(0)
			if x.Base != nil {
				first, n = x.Base.run(a, b, op)
			}
			var gone []interval.Interval
			gone, in = x.members(first, first+n-1, yiv, op, rm, add[:before(add, past)], in[:0])
			was, ok := picks(n)
			is, ok2 := picks(n - int64(len(gone)) + int64(len(in)))
			if !ok || !ok2 {
				return Patched{}, false
			}
			old, cur = old[:0], cur[:0]
			for _, o := range was {
				old = append(old, x.Base.Interval(first+o))
			}
			for i, o := range is {
				if cur = append(cur, x.Base.member(first, first+n-1, o, gone, in)); i > 0 && cur[i-1].Lo >= cur[i].Lo {
					return Patched{}, false
				}
			}
			out.Removed, out.Added = diffPoints(old, cur, out.Removed, out.Added)
		}
		rm, add = rm[before(rm, past):], add[before(add, past):]
	}
	return out, true
}

// PerGroup is the window-sized form of SelectPatched: for each of the n
// elements y(0), y(1), … in turn, the members of the group {x op y} are the
// elements overlapping win related to y (members), and pick chooses among them
// by position — 0-based, in predicate order, asked once per member count
// below 128; nil takes them all. The picks, trimmed to y where strict and
// they meet it, are appended to out: exactly the flattened materialized
// foreach and selection over the window's elements, in O(groups · log) plus
// the output. Base must not be nil.
func (x Patched) PerGroup(win interval.Interval, ny int, ys func(int) interval.Interval, op interval.ListOp, strict bool, pick func(n int) []int, out []interval.Interval) []interval.Interval {
	var picks [128][]int // by member count
	var gone, in []interval.Interval
	rest := x.Removed // from the last group's on: ys come in order, mostly
	wfirst, wlast, _ := x.Base.IndexRange(win)
	for k := 0; k < ny; k++ {
		y := ys(k)
		f, n := x.Base.run(chronology.OffsetFromTick(y.Lo), chronology.OffsetFromTick(y.Hi), op)
		first, last := f, f+n-1
		if n < 0 { // a prefix: from the window's first element
			first, last = wfirst, f-1
		}
		first, last = max(first, wfirst), min(last, wlast)
		if !x.Plain() {
			from := max(y.Lo, win.Lo) // where the points related to y start
			if n < 0 {
				from = win.Lo
			}
			if i := len(x.Removed) - len(rest); i > 0 && x.Removed[i-1].Lo >= from {
				rest = x.Removed[before(x.Removed, from):] // a group behind the last one
			}
			for len(rest) > 0 && rest[0].Lo < from {
				rest = rest[1:]
			}
			to := min(y.Hi, win.Hi)
			k := 0 // the removed points from..to: a scan, as they are few
			for k < len(rest) && rest[k].Lo <= to {
				k++
			}
			add := PointsIn(x.Added, interval.Interval{Lo: from, Hi: to})
			gone, in = x.members(first, last, y, op, rest[:k], add, in[:0])
		}
		n = max(last-first+1, 0) - int64(len(gone)) + int64(len(in))
		var pos []int
		if pick != nil && n > 0 {
			if n >= int64(len(picks)) {
				pos = pick(int(n))
			} else if pos = picks[n]; pos == nil {
				pos = pick(int(n))
				picks[n] = pos
			}
			n = int64(len(pos))
		}
		for i := int64(0); i < n; i++ {
			q := i
			if pick != nil {
				q = int64(pos[i])
			}
			lo, hi := x.Base.element(first + q)
			if len(gone)+len(in) > 0 {
				iv := x.Base.member(first, last, q, gone, in)
				lo, hi = chronology.OffsetFromTick(iv.Lo), chronology.OffsetFromTick(iv.Hi)
			}
			if a, b := chronology.OffsetFromTick(y.Lo), chronology.OffsetFromTick(y.Hi); strict && lo <= b && hi >= a {
				lo, hi = max(lo, a), min(hi, b)
			}
			out = append(out, interval.Interval{Lo: chronology.TickFromOffset(lo), Hi: chronology.TickFromOffset(hi)})
		}
	}
	return out
}

// diffPoints appends to rm the points of the ascending list old missing from
// cur, and to add those of cur missing from old.
func diffPoints(old, cur, rm, add []interval.Interval) ([]interval.Interval, []interval.Interval) {
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		switch {
		case j == len(cur) || i < len(old) && old[i].Lo < cur[j].Lo:
			rm, i = append(rm, old[i]), i+1
		case i == len(old) || cur[j].Lo < old[i].Lo:
			add, j = append(add, cur[j]), j+1
		default:
			i, j = i+1, j+1
		}
	}
	return rm, add
}
