package symbolic

import (
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/periodic"
)

// Stored gives a patched lowering the values of the stored calendars it may
// read as finite parts: ok=false for any name that is not a stored calendar
// of unbounded lifespan.
type Stored func(name string) (*calendar.Calendar, bool)

// EvalPatched lowers e, an inlined expression whose evaluation ticks have
// granularity gran, to its element list as a periodic.Patched: a stored
// calendar of strictly ascending points at gran lowers to those points as the
// finite part, carried through `-`, `+`, `:intersects:` and the foreach
// groupings and selections whose x has one. The base is the memo's lowering
// of the expression's stored-free twin (every stored name read as the empty
// list), shared by every tenant; the memo files the patched form under e's
// text and key, the content key of the stored values, so only the two point
// lists are kept per set of values. ok=false means no such form; nil with
// ok=true proves the list empty. The key must name the values stored
// returns.
func EvalPatched(ch *chronology.Chronology, stored Stored, e callang.Expr, gran chronology.Granularity, key uint64) (*periodic.Patched, bool) {
	en := filed(memoKey{ch.Epoch(), gran, e.String(), key}, func(en *memoEntry) int64 {
		l := &lowerer{ch: ch, gran: gran, stored: stored}
		px, _, ok := l.patched(e, 0)
		if en.ok = ok; !ok || px.Base == nil && len(px.Added) == 0 {
			return 0
		}
		en.px = &px
		return px.SizeBytes()
	})
	return en.px, en.ok
}

// patched lowers e to its element list with a finite part, and returns its
// stored-free twin (nil: the empty list), whose memo lowering is the base.
func (l *lowerer) patched(e callang.Expr, depth int) (px periodic.Patched, twin callang.Expr, ok bool) {
	if depth > maxDepth {
		return px, nil, false
	}
	if callang.BasicOnly(e) {
		px.Base, ok = l.lower(e, depth)
		return px, e, ok
	}
	switch n := e.(type) {
	case *callang.Ident:
		c, ok := l.stored(n.Name)
		if !ok || c.Granularity() != l.gran || c.Order() != 1 || !periodic.AscendingPoints(c.Intervals()) {
			return px, nil, false
		}
		ivs := c.Intervals()
		return periodic.Patched{Added: ivs[:len(ivs):len(ivs)]}, nil, true
	case *callang.BinExpr:
		return l.setOp(n.X, n.Y, n.Op, depth)
	case *callang.IntersectExpr:
		return l.setOp(n.X, n.Y, '&', depth)
	case *callang.ForeachExpr:
		return l.grouping(n, nil, depth)
	case *callang.SelectExpr:
		// As in node: per-group selection over one level of groups.
		fe, ok := n.X.(*callang.ForeachExpr)
		if !ok || n.Pred.Check() != nil {
			return px, nil, false
		}
		if _, nested := fe.X.(*callang.ForeachExpr); nested {
			return px, nil, false
		}
		return l.grouping(fe, n, depth)
	}
	return px, nil, false
}

// setOp lowers x op y ('+', '-' or '&' for intersects).
func (l *lowerer) setOp(xe, ye callang.Expr, op byte, depth int) (periodic.Patched, callang.Expr, bool) {
	x, xt, ok := l.patched(xe, depth+1)
	if !ok {
		return x, nil, false
	}
	y, yt, ok := l.patched(ye, depth+1)
	if !ok {
		return y, nil, false
	}
	// The twin, with the empty list folded away.
	var twin callang.Expr
	switch {
	case xt != nil && yt != nil && op == '&':
		twin = &callang.IntersectExpr{X: xt, Y: yt}
	case xt != nil && yt != nil:
		twin = &callang.BinExpr{Op: op, X: xt, Y: yt}
	case op == '+' && xt == nil:
		twin = yt
	case op != '&':
		twin = xt
	}
	base, ok := l.twin(twin, depth)
	if !ok {
		return x, nil, false
	}
	px, ok := periodic.PatchSet(x, y, op, base)
	return px, twin, ok
}

// grouping lowers the foreach fe, or the selection sel over it.
func (l *lowerer) grouping(fe *callang.ForeachExpr, sel *callang.SelectExpr, depth int) (px periodic.Patched, twin callang.Expr, ok bool) {
	x, xt, ok := l.patched(fe.X, depth+1)
	if !ok || !l.member(fe.X, x) {
		return px, nil, false
	}
	y, yt, ok := l.patched(fe.Y, depth+1)
	if !ok || !l.member(fe.Y, y) || len(y.Removed)+len(y.Added) > 0 {
		return px, nil, false
	}
	var pick func(int) []int
	if xt != nil && yt != nil {
		twin = &callang.ForeachExpr{X: xt, Op: fe.Op, Strict: fe.Strict, Y: yt}
		if sel != nil {
			twin = &callang.SelectExpr{Pred: sel.Pred, X: twin}
		}
	}
	if sel != nil {
		pick = func(size int) []int {
			if size < 0 {
				return endOffsets(sel.Pred)
			}
			return sel.Pred.Indices(size)
		}
	}
	base, ok := l.twin(twin, depth)
	if !ok {
		return px, nil, false
	}
	px, ok = periodic.SelectPatched(x, y.Base, fe.Op, pick, base)
	return px, twin, ok
}

// member reports whether a grouping operand may be grouped: a set operator's
// value only as a point list, whose elements no window edge cuts.
func (l *lowerer) member(e callang.Expr, v periodic.Patched) bool {
	switch e.(type) {
	case *callang.BinExpr, *callang.IntersectExpr:
		return v.Base == nil || v.Base.Points() && v.Base.Disjoint()
	}
	return true
}

// twin is the memo's lowering of a stored-free twin (nil: empty).
func (l *lowerer) twin(e callang.Expr, depth int) (*periodic.Pattern, bool) {
	if e == nil {
		return nil, true
	}
	return l.lower(e, depth)
}
