package plan

import (
	"fmt"
	"strings"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/callang/symbolic"
	"calsys/internal/core/interval"
	"calsys/internal/core/matcache"
	"calsys/internal/core/periodic"
)

// regVal is one register value: cal, once materialized, and until a consumer
// needs its interval list one of two lazy forms (DESIGN.md "Periodic
// compression"):
//   - px (Base non-nil), a list whose elements overlapping win are exactly
//     the value's element list — a generate op's pattern over its window,
//     less the points a difference took out — or, when grouped, exactly its
//     Flatten (a basic-only sub-tree's memo lowering, Op.Pat). That is the
//     order-1 guard: a foreach's x and a selection take px only when
//     !grouped; the set operators flatten and take it either way.
//   - fe, a grouping {x op y} of an x with px, and sel, a selection over it:
//     one position per group is picked by walking y's groups over x's window
//     (periodic.Patched.PerGroup).
type regVal struct {
	cal     *calendar.Calendar
	px      periodic.Patched
	win     interval.Interval
	grouped bool
	fe      *grouping
	sel     calendar.Selection // over fe; empty for the grouping itself
	gran    chronology.Granularity
}

// grouping is a lazy foreach whose y is order 1 with at least two elements:
// one group per element of y.
type grouping struct {
	x, y   *regVal
	op     interval.ListOp
	strict bool
}

func eager(c *calendar.Calendar) *regVal { return &regVal{cal: c} }

// materialize builds a lazy value's calendar — a list by walking it over
// its window, a selection of one member per group by walking y's groups — and keeps it for
// later consumers.
func (v *regVal) materialize() (*calendar.Calendar, error) {
	if v.cal != nil {
		return v.cal, nil
	}
	if v.fe == nil {
		v.cal = calendar.ExpandWindow(v.gran, v.px, v.win)
		return v.cal, nil
	}
	if v.sel.Single() {
		ny, ys, err := v.fe.y.elements()
		if err != nil {
			return nil, err
		}
		v.cal = calendar.Picked(v.gran, v.fe.x.px.PerGroup(v.fe.x.win, ny, ys, v.fe.op, v.fe.strict, v.sel.Indices, make([]interval.Interval, 0, ny)))
		return v.cal, nil
	}
	// Several picks per group, or every member: as many elements as x has
	// in the groups, so the kernels, which share x's slab, build it.
	x, err := v.fe.x.materialize()
	if err != nil {
		return nil, err
	}
	y, err := v.fe.y.materialize()
	if err != nil {
		return nil, err
	}
	if v.cal, err = calendar.Foreach(x, v.fe.op, v.fe.strict, y); err == nil && len(v.sel.Items) > 0 {
		v.cal, err = calendar.Select(v.sel, v.cal)
	}
	return v.cal, err
}

// elements returns an order-1 value's element count and elements: by index
// arithmetic on a listed value, so that a walk over it builds no list.
func (v *regVal) elements() (int, func(int) interval.Interval, error) {
	if p := v.px.Base; v.cal == nil && v.listed() {
		first, last, _ := p.IndexRange(v.win)
		return int(last - first + 1), func(i int) interval.Interval { return p.Interval(first + int64(i)) }, nil
	}
	c, err := v.materialize()
	if err != nil {
		return 0, nil, err
	}
	ivs := c.Intervals()
	return len(ivs), func(i int) interval.Interval { return ivs[i] }, nil
}

// listed reports whether the value is an order-1 pattern without exceptions.
func (v *regVal) listed() bool {
	return v.px.Base != nil && !v.grouped && v.px.Plain()
}

// view gives a lazy grouping or selection the window of its Flatten: the
// elements of pat, its basic-only sub-tree's lowering, overlapping the hull
// of y's elements. That is exact when y is a disjoint listed value, x's
// window covers each end element of it (so x holds the whole group of every
// element between: each member meets its y element), and each pick lies
// inside its y element, so that no element of pat straddles the hull — the
// exactness guard.
func (v *regVal) view(pat *periodic.Pattern) {
	g, x := v.fe, v.fe.x
	inside := g.op == interval.During || g.strict && (g.op == interval.Overlaps || g.op == interval.Meets)
	if pat == nil || !inside || !x.px.Plain() || !g.y.listed() || !g.y.px.Base.Disjoint() {
		return
	}
	y := g.y.px.Base
	first, last, _ := y.IndexRange(g.y.win) // a grouping's y has elements
	hull := interval.Interval{Lo: y.Interval(first).Lo, Hi: y.Interval(last).Hi}
	if x.win.Lo <= hull.Lo && hull.Hi <= x.win.Hi {
		v.px, v.win = periodic.Patched{Base: pat}, hull
	}
}

// WindowExact reports whether e evaluated over any window is, flattened and
// clipped to it, exactly its symbolic lowering's elements overlapping the
// window, in order. Set operators may cut results at the window's edge, which
// the clip hides, so they must stay on top; beneath them all must be whole.
func WindowExact(e callang.Expr) bool {
	switch n := e.(type) {
	case *callang.BinExpr:
		return WindowExact(n.X) && WindowExact(n.Y)
	case *callang.IntersectExpr:
		return WindowExact(n.X) && WindowExact(n.Y)
	}
	return whole(e, false)
}

// whole reports whether e is a calendar name, a selection from a whole
// grouping, or (unless member: an order-1 operand, one pick per group) such a
// grouping of a member by a member under during, overlaps or meets: the plan
// evaluates the group of every element overlapping the window (groupWin
// widens a relaxed grouping's). Nested groups differ in order, before and
// before-equals groups at the edges. A member may also be a set operator over
// a stored calendar (whole at the top): the patched lowering admits it only
// as a list of points, which no window edge cuts.
func whole(e callang.Expr, member bool) bool {
	switch n := e.(type) {
	case *callang.Ident:
		return true
	case *callang.BinExpr, *callang.IntersectExpr:
		return member && !callang.BasicOnly(e) && WindowExact(e)
	case *callang.SelectExpr:
		return (!member || n.Pred.Single()) && whole(n.X, false)
	case *callang.ForeachExpr:
		inside := n.Op == interval.During || n.Op == interval.Overlaps || n.Op == interval.Meets
		return !member && inside && whole(n.X, true) && whole(n.Y, true)
	}
	return false
}

// execState carries the derivation stack across the plans of one script run;
// nil is the empty stack.
type execState struct {
	depth int
	// deriving is the stack of opaque derivations currently being evaluated,
	// used to report the full path of a reference cycle (A → B → A).
	deriving []string
}

// maxDerivedDepth bounds nested opaque-derivation evaluation.
const maxDerivedDepth = 16

// Exec runs the plan and returns the result calendar.
func (p *Plan) Exec(env *Env, _ Unused) (*calendar.Calendar, error) {
	return p.exec(env, nil)
}

func (p *Plan) exec(env *Env, st *execState) (*calendar.Calendar, error) {
	regs := make([]*regVal, len(p.Ops))
	getVal := func(r Reg) (*regVal, error) {
		if r < 0 || int(r) >= len(regs) || regs[r] == nil {
			return nil, fmt.Errorf("plan: register %%t%d not populated", r)
		}
		return regs[r], nil
	}
	get := func(r Reg) (*calendar.Calendar, error) {
		v, err := getVal(r)
		if err != nil {
			return nil, err
		}
		return v.materialize()
	}
	for i, op := range p.Ops {
		v, err := p.execVal(env, st, op, getVal, get)
		if err != nil {
			return nil, fmt.Errorf("plan: %s: %w", op, err)
		}
		regs[i] = v
	}
	return get(p.Result)
}

// execVal evaluates the ops whose results can stay lazy — generate (a
// pattern over its window), foreach (a grouping of such an x), selection and
// intersection (walked, not built), difference (a pattern less points) — and
// leaves every other op, and every operand these cannot take lazily, to
// execOp.
func (p *Plan) execVal(env *Env, st *execState, op Op, getVal func(Reg) (*regVal, error), get func(Reg) (*calendar.Calendar, error)) (*regVal, error) {
	var a, b *regVal
	var err error
	switch op.Kind {
	case OpGenerate:
		if v, ok := p.patternValue(env, op); ok {
			return v, nil
		}
	case OpForeach, OpSelect, OpIntersect, OpDiff:
		if a, err = getVal(op.A); err != nil {
			return nil, err
		}
	}
	switch op.Kind {
	case OpForeach:
		if b, err = getVal(op.B); err != nil {
			return nil, err
		}
		n := int64(0) // y's elements, when order 1 and known
		switch {
		case b.listed():
			first, last, _ := b.px.Base.IndexRange(b.win)
			n = last - first + 1
		case b.cal != nil && b.cal.Order() == 1:
			n = int64(b.cal.Len())
		}
		if n >= 2 && a.px.Base != nil && !a.grouped {
			v := &regVal{fe: &grouping{x: a, y: b, op: op.ListOp, strict: op.Strict}, grouped: true, gran: p.Gran}
			v.view(op.Pat)
			return v, nil
		}
	case OpSelect:
		if a.fe != nil && len(a.sel.Items) == 0 && a.cal == nil {
			v := &regVal{fe: a.fe, sel: op.Sel, grouped: !op.Sel.Single(), gran: p.Gran}
			v.view(op.Pat)
			return v, nil
		}
	case OpIntersect:
		// A point list cut to b is its points inside b's coverage: a walk
		// over the coverage's runs, or over b's elements if b is a disjoint
		// list without exceptions.
		if a.px.Base == nil || !a.px.Base.Points() {
			break
		}
		if b, err = getVal(op.B); err != nil {
			return nil, err
		}
		var ny int
		var ys func(int) interval.Interval
		if b.listed() && b.px.Base.Disjoint() {
			ny, ys, _ = b.elements() // a listed value's cannot fail
		} else {
			bc, err := b.materialize()
			if err != nil {
				return nil, err
			}
			runs := bc.Flatten().ToSet().Intervals()
			ny, ys = len(runs), func(i int) interval.Interval { return runs[i] }
		}
		return eager(calendar.Picked(p.Gran, a.px.PerGroup(a.win, ny, ys, interval.During, false, nil, nil))), nil
	case OpDiff:
		// A disjoint point pattern less a point list is the pattern less
		// those of the points that are its elements.
		if a.px.Base == nil || !a.px.Base.Points() || !a.px.Base.Disjoint() || !a.px.Plain() {
			break
		}
		bc, err := get(op.B)
		if err != nil {
			return nil, err
		}
		if pts := bc.Flatten().Intervals(); periodic.AscendingPoints(pts) {
			// Points outside a's window take out none of its elements, which
			// are points inside it.
			pts = periodic.PointsIn(pts, a.win)
			if px, ok := periodic.PatchSet(a.px, periodic.Patched{Added: pts}, '-', a.px.Base); ok {
				return &regVal{px: px, win: a.win, gran: p.Gran}, nil
			}
		}
	}
	c, err := p.execOp(env, st, op, get)
	if err != nil {
		return nil, err
	}
	return eager(c), nil
}

// patternValue answers an OpGenerate with the pair's exact all-time pattern,
// left unexpanded for the consumer, when the environment shares work across
// evaluations: the pattern is the symbolic memo's entry for the pair, built
// once per (epoch, of, gran) and process, and every later window of the pair
// — from any evaluation and tenant — is a hit. A self-contained environment
// (no shared cache, or sharing disabled) generates every window directly, and
// so never holds a lazy value: it is the executor's eager oracle.
func (p *Plan) patternValue(env *Env, op Op) (*regVal, bool) {
	if !lazyEnv(env) {
		return nil, false
	}
	pat, ok := symbolic.Basic(env.Chron, op.Of, p.Gran)
	if !ok {
		return nil, false
	}
	return &regVal{px: periodic.Patched{Base: pat}, win: op.Win, gran: p.Gran}, true
}

// lazyEnv reports whether an environment evaluates from patterns: it has a
// shared cache and shares work.
func lazyEnv(env *Env) bool { return env.Mat != nil && !env.DisableSharing }

func (p *Plan) execOp(env *Env, st *execState, op Op, get func(Reg) (*calendar.Calendar, error)) (*calendar.Calendar, error) {
	switch op.Kind {
	case OpGenerate:
		return calendar.GenerateFull(env.Chron, op.Of, p.Gran, op.Win.Lo, op.Win.Hi)
	case OpGenerateCall:
		c, err := calendar.Generate(env.Chron, op.Of, op.In, op.Win.Lo, op.Win.Hi)
		if err != nil {
			return nil, err
		}
		return calendar.ConvertGran(env.Chron, c, p.Gran)
	case OpUnit:
		return calendar.Unit(env.Chron, op.Of, p.Gran, op.Tick)
	case OpLoad:
		c, ok := env.Cat.StoredCalendar(op.Name)
		if !ok {
			return nil, fmt.Errorf("stored calendar %q disappeared", op.Name)
		}
		conv, err := calendar.ConvertGran(env.Chron, c, p.Gran)
		if err != nil {
			return nil, err
		}
		if ls, ok := lifespanIn(env, op.Name, p.Gran); ok {
			return calendar.ClipToInterval(conv, ls)
		}
		return conv, nil
	case OpDerived:
		if st == nil { // a run that reaches no derivation allocates no stack
			st = new(execState)
		}
		for _, active := range st.deriving {
			if strings.EqualFold(active, op.Name) {
				return nil, fmt.Errorf("derivation cycle: %s",
					callang.CyclePath(append(append([]string{}, st.deriving...), op.Name)))
			}
		}
		if st.depth >= maxDerivedDepth {
			return nil, fmt.Errorf("derivation of %q nested deeper than %d: %s",
				op.Name, maxDerivedDepth, callang.CyclePath(append(append([]string{}, st.deriving...), op.Name)))
		}
		// The key and its witness are read before the derivation: a value is
		// filed only if the witness still holds after the evaluation, when
		// every read it made saw the content the key names.
		dkey, gen, cacheable := p.derivedKey(env, op.Name)
		script, ok := env.Cat.DerivationOf(op.Name)
		if !ok {
			return nil, fmt.Errorf("derived calendar %q disappeared", op.Name)
		}
		win := op.Win
		if ls, ok := lifespanIn(env, op.Name, p.Gran); ok {
			cut, overlap := win.Intersect(ls)
			if !overlap {
				// The requested window lies wholly outside the calendar's
				// lifespan: it describes no time points there.
				return calendar.Empty(p.Gran), nil
			}
			win = cut
		}
		if cacheable {
			if c, ok := env.Mat.Get(dkey, win); ok {
				return c, nil
			}
		}
		eval := func() (*calendar.Calendar, error) {
			st.depth++
			st.deriving = append(st.deriving, op.Name)
			v, err := runScript(env, script, p.Gran, win, st)
			st.deriving = st.deriving[:len(st.deriving)-1]
			st.depth--
			if err != nil {
				return nil, fmt.Errorf("evaluating %q: %w", op.Name, err)
			}
			if v.Cal == nil {
				return nil, fmt.Errorf("derived calendar %q returned an alert string, not a calendar", op.Name)
			}
			return calendar.ConvertGran(env.Chron, v.Cal, p.Gran)
		}
		if !cacheable {
			return eval()
		}
		unchanged := func() bool {
			_, g := env.Cat.(VersionedCatalog).ValuesStamp(op.Name)
			return g == gen
		}
		if st.depth > 0 {
			// Nested derived references evaluate inline rather than flying:
			// depth is only incremented inside a flight leader's eval, so
			// keeping nested refs out of Do means a leader never waits on
			// another flight at its own level — the wait graph stays acyclic
			// (expression → derived).
			out, err := eval()
			if err == nil && unchanged() {
				env.Mat.Put(dkey, win, out)
			}
			return out, err
		}
		return env.Mat.Do(dkey, win, eval, unchanged)
	case OpToday:
		if env.Now == nil {
			return nil, fmt.Errorf("`today` is unavailable: no clock in environment")
		}
		tick := env.Chron.TickAt(p.Gran, env.Now())
		return calendar.FromPoints(p.Gran, []chronology.Tick{tick})
	case OpConst:
		return op.Lit, nil
	case OpForeach:
		a, err := get(op.A)
		if err != nil {
			return nil, err
		}
		b, err := get(op.B)
		if err != nil {
			return nil, err
		}
		return calendar.Foreach(a, op.ListOp, op.Strict, b)
	case OpSelect:
		a, err := get(op.A)
		if err != nil {
			return nil, err
		}
		return calendar.Select(op.Sel, a)
	case OpIntersect:
		return binSet(op, get, calendar.Intersect)
	case OpUnion:
		return binSet(op, get, calendar.Union)
	case OpDiff:
		return binSet(op, get, calendar.Diff)
	case OpCaloperate:
		a, err := get(op.A)
		if err != nil {
			return nil, err
		}
		return calendar.Caloperate(a, op.Counts)
	}
	return nil, fmt.Errorf("unimplemented op kind %d", int(op.Kind))
}

// derivedKey returns the shared-cache key for a derived calendar's
// materialization at this plan's granularity, the witness read with it, and
// whether caching is sound: the catalog must stamp the calendar's values and
// must vouch that it is not volatile (no `today`, no clock waits, directly or
// transitively).
func (p *Plan) derivedKey(env *Env, name string) (matcache.Key, uint64, bool) {
	if env.Mat == nil || env.DisableSharing {
		return matcache.Key{}, 0, false
	}
	vc, ok := env.Cat.(VersionedCatalog)
	if !ok {
		return matcache.Key{}, 0, false
	}
	volc, ok := env.Cat.(VolatilityCatalog)
	if !ok || volc.VolatileOf(name) {
		return matcache.Key{}, 0, false
	}
	key, gen := vc.ValuesStamp(name)
	return matcache.Key{
		Scope:   env.MatScope,
		ID:      "D|" + strings.ToLower(name),
		Version: key,
		Gran:    p.Gran,
	}, gen, true
}

// lifespanIn converts a calendar's day-tick lifespan to granularity g, when
// the catalog declares one that bounds it (callang.BoundedLifespan).
func lifespanIn(env *Env, name string, g chronology.Granularity) (interval.Interval, bool) {
	lo, hi, ok := callang.BoundedLifespan(env.Cat, name)
	if !ok {
		return interval.Interval{}, false
	}
	return convertWindow(env.Chron, chronology.Day, interval.Interval{Lo: lo, Hi: hi}, g), true
}

func binSet(op Op, get func(Reg) (*calendar.Calendar, error), f func(a, b *calendar.Calendar) (*calendar.Calendar, error)) (*calendar.Calendar, error) {
	a, err := get(op.A)
	if err != nil {
		return nil, err
	}
	b, err := get(op.B)
	if err != nil {
		return nil, err
	}
	// The set operators require order-1 operands; foreach chains can leave
	// order-2 results whose sub-structure is no longer meaningful to a
	// point-set operation, so flatten first (a view, for a grouping or a
	// selection result).
	return f(a.Flatten(), b.Flatten())
}

// ExprNode aliases the language's expression type for callers that only
// import plan.
type ExprNode = callang.Expr

// Evaluate prepares, compiles and executes a calendar expression over a
// civil-date window.
func Evaluate(env *Env, e ExprNode, from, to chronology.Civil) (*calendar.Calendar, error) {
	p, err := CompileExpr(env, e, from, to)
	if err != nil {
		return nil, err
	}
	return p.Exec(env, nil)
}

// EvaluateWindow is Evaluate with an explicit tick window at an explicit
// granularity (no inference).
func EvaluateWindow(env *Env, e ExprNode, gran chronology.Granularity, win interval.Interval) (*calendar.Calendar, error) {
	prepped, _, err := Prepare(env, e, nil)
	if err != nil {
		return nil, err
	}
	p, err := Compile(env, prepped, nil, gran, win)
	if err != nil {
		return nil, err
	}
	return p.Exec(env, nil)
}
