package calendar

import (
	"fmt"
	"strconv"

	"calsys/internal/core/interval"
)

// A SelItem is one term of a selection predicate: a single position, or an
// inclusive range of positions. Positions are 1-based; negative positions
// count from the end of the list (-1 is the last element); Last selects the
// final element (the paper's "n").
type SelItem struct {
	Last  bool // the paper's [n]
	Pos   int  // used when !Last and !IsRange
	Range bool
	From  int // range endpoints when Range (both may be negative / Last-less)
	To    int
}

// A Selection is the paper's selection predicate [x]/C, where x may be an
// integer, a list of integers, or an integer range; n selects the last
// element and a minus sign selects from the end (§3.1).
type Selection struct {
	Items []SelItem
}

// SelectIndex returns the predicate [k].
func SelectIndex(k int) Selection { return Selection{Items: []SelItem{{Pos: k}}} }

// SelectLast returns the predicate [n].
func SelectLast() Selection { return Selection{Items: []SelItem{{Last: true}}} }

// SelectList returns the predicate [k1,k2,...].
func SelectList(ks ...int) Selection {
	items := make([]SelItem, len(ks))
	for i, k := range ks {
		items[i] = SelItem{Pos: k}
	}
	return Selection{Items: items}
}

// SelectRange returns the predicate [from-to] (inclusive).
func SelectRange(from, to int) Selection {
	return Selection{Items: []SelItem{{Range: true, From: from, To: to}}}
}

// String renders the predicate in surface syntax, e.g. "[3]", "[n]",
// "[1,3,-2]", "[2-5]".
func (s Selection) String() string { return string(s.Append(nil)) }

// Append appends the predicate's surface syntax to b.
func (s Selection) Append(b []byte) []byte {
	b = append(b, '[')
	for i, it := range s.Items {
		if i > 0 {
			b = append(b, ',')
		}
		switch {
		case it.Last:
			b = append(b, 'n')
		case it.Range:
			b = strconv.AppendInt(append(strconv.AppendInt(b, int64(it.From), 10), '-'), int64(it.To), 10)
		default:
			b = strconv.AppendInt(b, int64(it.Pos), 10)
		}
	}
	return append(b, ']')
}

// Check validates the predicate.
func (s Selection) Check() error {
	if len(s.Items) == 0 {
		return fmt.Errorf("calendar: empty selection predicate")
	}
	for _, it := range s.Items {
		if it.Last {
			continue
		}
		if it.Range {
			if it.From == 0 || it.To == 0 {
				return fmt.Errorf("calendar: selection range endpoint 0 is invalid (positions are 1-based)")
			}
			continue
		}
		if it.Pos == 0 {
			return fmt.Errorf("calendar: selection position 0 is invalid (positions are 1-based)")
		}
	}
	return nil
}

// resolve maps a signed 1-based position onto a 0-based index in a list of
// length ln, returning ok=false when out of range.
func resolvePos(pos, ln int) (int, bool) {
	switch {
	case pos > 0 && pos <= ln:
		return pos - 1, true
	case pos < 0 && -pos <= ln:
		return ln + pos, true
	}
	return 0, false
}

// span resolves one term against a list of length ln to the inclusive
// 0-based index range it selects. Out-of-range positions select nothing (the
// paper's examples silently drop months with fewer weeks, e.g. the missing
// 4-week February entry in §3.1); a range is clamped to the list.
func (it SelItem) span(ln int) (from, to int, ok bool) {
	switch {
	case it.Last:
		return ln - 1, ln - 1, ln > 0
	case it.Range:
		from, ok1 := resolvePos(it.From, ln)
		to, ok2 := resolvePos(it.To, ln)
		if !ok1 && it.From > 0 {
			return 0, 0, false // starts past the end
		}
		if !ok2 && it.To > 0 {
			to, ok2 = ln-1, true // clamp open-ended ranges
		}
		// A negative From reaching before the start resolved to 0.
		return from, to, ok2 && from <= to
	}
	i, ok := resolvePos(it.Pos, ln)
	return i, i, ok
}

// resolve appends to spans the index ranges the predicate selects from a
// list of length ln, in predicate order, and returns them with the number of
// elements they hold; a term that continues the one before it extends its
// range ([1,2,3] is one range of three).
func (s Selection) resolve(ln int, spans []extent) (_ []extent, n int) {
	for _, it := range s.Items {
		from, to, ok := it.span(ln)
		if !ok {
			continue
		}
		n += to - from + 1
		if k := len(spans) - 1; k >= 0 && spans[k].first+spans[k].n == from {
			spans[k].n += to - from + 1
		} else {
			spans = append(spans, extent{first: from, n: to - from + 1})
		}
	}
	return spans, n
}

// Indices expands the predicate against a list of length ln, returning the
// selected 0-based indices in predicate order. Plan execution uses this to
// answer selections over pattern-backed values by index arithmetic, without
// materializing the list being selected from.
func (s Selection) Indices(ln int) []int {
	spans, n := s.resolve(ln, make([]extent, 0, 8))
	out := make([]int, 0, n)
	for _, e := range spans {
		for i := e.first; i < e.first+e.n; i++ {
			out = append(out, i)
		}
	}
	return out
}

// Single reports whether the predicate selects at most one element (a single
// index or [n]); in that case selection on an order-n calendar reduces the
// order by one, per the paper's [3]/WEEKS:overlaps:Year-1993 example.
func (s Selection) Single() bool {
	return len(s.Items) == 1 && !s.Items[0].Range
}

// Select applies the selection predicate to a calendar (the paper's [x]/C).
//
// Order 1: the selected intervals form a new order-1 calendar.
// Order n>1: the predicate is applied to each order n-1 element. If the
// predicate selects a single element, the chosen intervals collapse into a
// calendar of order n-1; otherwise each element is replaced by its selection
// and the order is preserved.
func Select(s Selection, c *Calendar) (*Calendar, error) {
	if err := s.Check(); err != nil {
		return nil, err
	}
	return selectRec(s, c), nil
}

// selectRec answers a selection in two passes — count, then fill one
// exact-size slab (and one extent array above order 1) — with no index list
// and no calendar per group. The predicate is resolved again only when a
// group's length differs from the last one's: the groups of a grouping by a
// basic calendar nearly all share one length, so most cost one copy per range
// and no arithmetic.
func selectRec(s Selection, c *Calendar) *Calendar {
	spans := make([]extent, 0, 8)
	if c.ext == nil {
		spans, n := s.resolve(len(c.ivs), spans)
		return newLeaf(c.gran, appendRanges(make([]interval.Interval, 0, n), c.ivs, spans), false)
	}
	total, ln, n := 0, -1, 0
	for _, e := range c.ext {
		if e.n != ln {
			ln = e.n
			spans, n = s.resolve(ln, spans[:0])
		}
		total += n
	}
	out := &Calendar{gran: c.gran, ivs: make([]interval.Interval, 0, total)}
	ln, k := -1, 0
	// fill appends the picks of c's next n groups, back to back: one group of
	// the result.
	fill := func(n int) extent {
		mark := len(out.ivs)
		for ; n > 0; n, k = n-1, k+1 {
			if c.ext[k].n != ln {
				ln = c.ext[k].n
				spans, _ = s.resolve(ln, spans[:0])
			}
			out.ivs = appendRanges(out.ivs, c.Group(k), spans)
		}
		return extent{first: mark, n: len(out.ivs) - mark}
	}
	switch last := len(c.up) - 1; {
	case !s.Single():
		// The order is kept: a group for each group, under the same levels.
		out.ext, out.up = make([]extent, len(c.ext)), c.up
		for i := range out.ext {
			out.ext[i] = fill(1)
		}
	case last < 0:
		fill(len(c.ext))
	default:
		// The last level goes: each of its elements becomes one group, the
		// picks of the groups it held.
		out.ext, out.up = make([]extent, len(c.up[last])), c.up[:last:last]
		for i, n := range c.up[last] {
			out.ext[i] = fill(n)
		}
	}
	out.sortedDisjoint = disjointSorted(out.ivs)
	return out
}

// appendRanges appends the given index ranges of src to out.
func appendRanges(out, src []interval.Interval, spans []extent) []interval.Interval {
	for _, e := range spans {
		out = append(out, src[e.first:e.first+e.n]...)
	}
	return out
}
