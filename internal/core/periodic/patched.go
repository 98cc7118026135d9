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

// exceptional reports whether the list has a finite part.
func (x Patched) exceptional() bool { return len(x.Removed)+len(x.Added) > 0 }

// pointList reports whether p is empty or a disjoint pattern of points.
func pointList(p *Pattern) bool { return p == nil || p.Points() && p.Disjoint() }

// before returns how many points of the ascending list ps start before t.
func before(ps []interval.Interval, t chronology.Tick) int {
	return sort.Search(len(ps), func(i int) bool { return ps[i].Lo >= t })
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
	if !x.exceptional() {
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
// elements in order: the encoder's walk of a window.
func (x Patched) Walk(first int64) Cursor {
	// The walk has no last element: last is one no walk reaches.
	if !x.exceptional() {
		return Cursor{p: x.Base, i: first, last: first + 1<<62}
	}
	i, m, j := x.Base.locate(0, first, x.Removed, x.Added)
	return Cursor{p: x.Base, i: i, last: i + 1<<62, rm: x.Removed[m:], add: x.Added[j:]}
}

// NextAfter returns the start tick of the first element starting strictly
// after tick t; ok is false when there is none.
func (x Patched) NextAfter(t chronology.Tick) (start chronology.Tick, ok bool) {
	if !x.exceptional() && x.Base != nil {
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

// upto returns how many points at the front of the ascending list ps start
// before t: a scan, for lists consumed in order.
func upto(ps []interval.Interval, t chronology.Tick) int {
	n := 0
	for n < len(ps) && ps[n].Lo < t {
		n++
	}
	return n
}

// among returns the points of the ascending list ps, read from its front,
// that start within the elements first through last of p, a disjoint point
// pattern: those that are the run's elements, when ps holds elements of p
// only.
func (p *Pattern) among(first, last int64, ps []interval.Interval) []interval.Interval {
	if p == nil || first > last {
		return nil
	}
	lo, _ := p.element(first)
	hi, _ := p.element(last)
	ps = ps[upto(ps, chronology.TickFromOffset(lo)):]
	return ps[:upto(ps, chronology.TickFromOffset(hi+1))]
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

// A Cursor walks a list with exceptions: the elements of p from index i
// through last, less those starting at a point of rm, merged in order with
// the points of add. It is the one walk of such a list, a Patched's (Walk)
// and a window's less its exceptions (Window.Expand). rm and add are
// ascending; rm points that are not elements are passed over; p may be nil.
type Cursor struct {
	p       *Pattern
	i, last int64
	rm, add []interval.Interval
}

// Next fills dst with the cursor's next elements, fewer where the list ends,
// and returns them. A run without exceptions is one Fill; elsewhere base
// elements come a Fill of up to 32 at a time and merge with the exceptions.
func (c *Cursor) Next(dst []interval.Interval) []interval.Interval {
	var buf [32]interval.Interval
	n := 0
	for n < len(dst) {
		if c.p == nil || c.i > c.last { // no base left: the adds are all that remain
			k := copy(dst[n:], c.add)
			c.add, n = c.add[k:], n+k
			break
		}
		if len(c.rm) == 0 && len(c.add) == 0 {
			k := int(min(c.last-c.i+1, int64(len(dst)-n)))
			c.p.Fill(dst[n:n+k], c.i)
			c.i, n = c.i+int64(k), n+k
			continue
		}
		base := buf[:min(c.last-c.i+1, int64(len(buf)))]
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
			case base[b].Lo == x:
				c.rm, b = c.rm[1:], b+1
			default: // not an element: nothing to take out
				c.rm = c.rm[1:]
			}
		}
		c.i += int64(b)
	}
	return dst[:n]
}

// covers reports whether an element of p covers tick t. Both element bounds
// are monotone in the index, so the first element ending at or after t is the
// one starting earliest among those that can.
func (p *Pattern) covers(t chronology.Tick) bool {
	if p == nil {
		return false
	}
	x := chronology.OffsetFromTick(t)
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
	if !x.exceptional() && !y.exceptional() {
		return Patched{Base: base}, true
	}
	if !pointList(base) || !pointList(x.Base) || op == '+' && !pointList(y.Base) {
		return Patched{}, false
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

// SelectPatched is ForeachSelect over an x with a finite part (pick nil: the
// flattened grouping, every member), given base, the value over x.Base (the
// caller's lowering of the stored-free twin). Only the groups that an
// exception of x falls in are recomputed: their members are the run of
// x.Base less x.Removed plus the x.Added points related to the group — the
// member arithmetic Window.Groups runs — and their picks patch base's. ok=false
// unless x and base are point lists, y is disjoint (a point falls in one
// group) and groups by during, overlaps or meets, and every recomputed group
// picks in ascending order.
func SelectPatched(x Patched, y *Pattern, op interval.ListOp, pick func(int) []int, base *Pattern) (Patched, bool) {
	if !x.exceptional() || y == nil {
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
			// The group's members after the exceptions: the run less the
			// removed points in it plus the added points related to y.
			in = in[:0]
			for _, pt := range add[:upto(add, past)] {
				if op.Eval(pt, yiv) {
					in = append(in, pt)
				}
			}
			gone := x.Base.among(first, first+n-1, rm)
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
		rm, add = rm[upto(rm, past):], add[upto(add, past):]
	}
	return out, true
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
