package plan

import (
	"fmt"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/interval"
)

// Prepare runs the front half of the §3.4 parsing algorithm on an
// expression: inline derived calendars, factorize, and determine the
// smallest time unit. vars names the script temporaries in scope, which
// shadow catalog calendars of the same name.
func Prepare(env *Env, e callang.Expr, vars map[string]bool) (callang.Expr, chronology.Granularity, error) {
	inlined, err := callang.Inline(e, env.Cat, vars)
	if err != nil {
		return nil, 0, err
	}
	out := inlined
	if !env.DisableFactorization {
		out = callang.Factorize(inlined, env.Cat)
	}
	analysis := callang.Analyze(out, env.Cat)
	return out, analysis.TickGran, nil
}

// CivilWindow converts an inclusive civil-date range into a tick window at
// granularity g.
func CivilWindow(ch *chronology.Chronology, g chronology.Granularity, from, to chronology.Civil) (interval.Interval, error) {
	if !from.Valid() || !to.Valid() {
		return interval.Interval{}, fmt.Errorf("plan: invalid civil window %v..%v", from, to)
	}
	if to.Before(from) {
		return interval.Interval{}, fmt.Errorf("plan: reversed civil window %v..%v", from, to)
	}
	lo := ch.TickAt(g, ch.EpochSecondsOf(from))
	hi := ch.TickAt(g, ch.EpochSecondsOf(to.AddDays(1))-1)
	return interval.Interval{Lo: lo, Hi: hi}, nil
}

// CompileExpr prepares and compiles an expression against a civil-date base
// window, returning the plan and the inferred granularity.
func CompileExpr(env *Env, e callang.Expr, vars map[string]bool, from, to chronology.Civil) (*Plan, error) {
	prepped, gran, err := Prepare(env, e, vars)
	if err != nil {
		return nil, err
	}
	win, err := CivilWindow(env.Chron, gran, from, to)
	if err != nil {
		return nil, err
	}
	return Compile(env, prepped, vars, gran, win)
}

// Compile lowers a prepared expression to a Plan with concrete generation
// windows. Identical subexpressions share a register, implementing the
// paper's "mark any calendar that is encountered more than once to avoid
// generating values of the calendar unnecessarily".
func Compile(env *Env, e callang.Expr, vars map[string]bool, gran chronology.Granularity, win interval.Interval) (*Plan, error) {
	if err := win.Check(); err != nil {
		return nil, fmt.Errorf("plan: base window: %w", err)
	}
	c := &compiler{
		env:  env,
		vars: vars,
		plan: &Plan{Gran: gran, Window: win},
		cse:  map[string]Reg{},
		base: win,
	}
	r, err := c.compile(e, win)
	if err != nil {
		return nil, err
	}
	c.plan.Result = r
	return c.plan, nil
}

type compiler struct {
	env  *Env
	vars map[string]bool
	plan *Plan
	cse  map[string]Reg
	base interval.Interval
}

// emit appends an op, reusing an existing register when an identical op was
// already emitted (common-subexpression elimination — the paper's shared-
// calendar marking).
func (c *compiler) emit(op Op) Reg {
	if !c.env.DisableSharing {
		key := op.withDst(0).String()
		if r, ok := c.cse[key]; ok {
			return r
		}
		op.Dst = Reg(len(c.plan.Ops))
		c.plan.Ops = append(c.plan.Ops, op)
		c.cse[key] = op.Dst
		return op.Dst
	}
	op.Dst = Reg(len(c.plan.Ops))
	c.plan.Ops = append(c.plan.Ops, op)
	return op.Dst
}

func (op Op) withDst(d Reg) Op {
	op.Dst = d
	return op
}

// staticWin bounds where an expression's elements can lie, given the node's
// window; this is the §3.4 look-ahead that narrows generation windows.
func (c *compiler) staticWin(e callang.Expr, win interval.Interval) interval.Interval {
	switch n := e.(type) {
	case *callang.LabelSelExpr:
		if id, ok := n.X.(*callang.Ident); ok {
			if g, err := chronology.ParseGranularity(id.Name); err == nil {
				if tick, err := c.labelTick(g, n.Num); err == nil {
					lo, hi := c.env.Chron.UnitSpanIn(g, tick, c.plan.Gran)
					return interval.Interval{Lo: lo, Hi: hi}
				}
			}
		}
		return c.staticWin(n.X, win)
	case *callang.SelectExpr:
		return c.staticWin(n.X, win)
	case *callang.ForeachExpr:
		yw := c.staticWin(n.Y, win)
		switch n.Op {
		case interval.During, interval.Overlaps, interval.Meets:
			return yw
		default: // < and <=: elements may lie anywhere from the base up to Y
			return interval.Interval{Lo: c.base.Lo, Hi: yw.Hi}
		}
	case *callang.IntersectExpr:
		xw := c.staticWin(n.X, win)
		yw := c.staticWin(n.Y, win)
		if cut, ok := xw.Intersect(yw); ok {
			return cut
		}
		return xw
	case *callang.BinExpr:
		xw := c.staticWin(n.X, win)
		yw := c.staticWin(n.Y, win)
		if n.Op == '-' {
			return xw
		}
		return xw.Hull(yw)
	}
	return win
}

func (c *compiler) narrowed(e callang.Expr, win interval.Interval) interval.Interval {
	if c.env.DisableWindowInference {
		return win
	}
	sw := c.staticWin(e, win)
	if cut, ok := win.Intersect(sw); ok {
		return cut
	}
	// Disjoint: the expression's elements lie outside the node window; keep
	// the static window so foreach semantics still see them (e.g. business
	// days *before* a window-straddling holiday).
	return sw
}

// outerWin bounds the hull of an expression's possible elements given its
// generation window. Unlike staticWin (which narrows), outerWin answers "how
// far can elements reach beyond the window?": a basic calendar's first and
// last units straddle the window edges, and relaxed foreach keeps whole
// elements.
func (c *compiler) outerWin(e callang.Expr, win interval.Interval) interval.Interval {
	ch := c.env.Chron
	switch n := e.(type) {
	case *callang.Ident:
		if g, err := chronology.ParseGranularity(n.Name); err == nil && !g.Finer(c.plan.Gran) {
			return c.expandToUnits(win, g)
		}
		// Stored, derived or variable calendars: values are absolute, so
		// assume they can span the whole base window.
		return win.Hull(c.base)
	case *callang.LabelSelExpr:
		if id, ok := n.X.(*callang.Ident); ok {
			if g, err := chronology.ParseGranularity(id.Name); err == nil {
				if tick, lerr := c.labelTick(g, n.Num); lerr == nil {
					lo, hi := ch.UnitSpanIn(g, tick, c.plan.Gran)
					return interval.Interval{Lo: lo, Hi: hi}
				}
			}
		}
		return c.outerWin(n.X, win)
	case *callang.SelectExpr:
		return c.outerWin(n.X, win)
	case *callang.ForeachExpr:
		ow := c.outerWin(n.Y, c.narrowed(n.Y, win))
		switch n.Op {
		case interval.During:
			return ow // elements lie inside Y's elements
		case interval.Overlaps:
			if n.Strict {
				return ow // trimmed to the overlap
			}
			return c.expandByKind(ow, n.X)
		case interval.Meets:
			return c.expandByKind(ow, n.X)
		default: // < and <=: whole elements reaching back to the base start
			out := c.expandByKind(ow, n.X)
			if c.base.Lo < out.Lo {
				out.Lo = c.base.Lo
			}
			return out
		}
	case *callang.IntersectExpr:
		a := c.outerWin(n.X, win)
		b := c.outerWin(n.Y, win)
		if cut, ok := a.Intersect(b); ok {
			return cut
		}
		return a
	case *callang.BinExpr:
		a := c.outerWin(n.X, win)
		if n.Op == '-' {
			return a
		}
		return a.Hull(c.outerWin(n.Y, win))
	}
	return win.Hull(c.base)
}

// expandToUnits widens a window to whole units of granularity g, covering
// the straddle of the first and last generated unit.
func (c *compiler) expandToUnits(w interval.Interval, g chronology.Granularity) interval.Interval {
	ch := c.env.Chron
	if g.Finer(c.plan.Gran) {
		return w
	}
	uLo := ch.TickAt(g, ch.UnitStart(c.plan.Gran, w.Lo))
	uHi := ch.TickAt(g, ch.UnitEndExcl(c.plan.Gran, w.Hi)-1)
	lo, _ := ch.UnitSpanIn(g, uLo, c.plan.Gran)
	_, hi := ch.UnitSpanIn(g, uHi, c.plan.Gran)
	return interval.Interval{Lo: lo, Hi: hi}
}

// expandByKind widens a window to whole units of x's element kind when it is
// known, else conservatively to the base window.
func (c *compiler) expandByKind(w interval.Interval, x callang.Expr) interval.Interval {
	if g, ok := callang.ElemKind(x, c.env.Cat); ok {
		return c.expandToUnits(w, g)
	}
	return w.Hull(c.base)
}

// labelTick maps a label such as 1993 onto a tick of granularity g. Year
// labels apply to YEARS and coarser; finer granularities take the label as a
// raw tick.
func (c *compiler) labelTick(g chronology.Granularity, label int64) (chronology.Tick, error) {
	if g.Coarser(chronology.Month) {
		yearTick := c.env.Chron.YearTick(int(label))
		return c.env.Chron.Rebase(chronology.Year, yearTick, g), nil
	}
	if err := chronology.CheckTick(label); err != nil {
		return 0, fmt.Errorf("plan: label %d: %w", label, err)
	}
	return label, nil
}

func (c *compiler) compile(e callang.Expr, win interval.Interval) (Reg, error) {
	switch n := e.(type) {
	case *callang.Ident:
		return c.compileIdent(n, win)
	case *callang.Number:
		return 0, fmt.Errorf("plan: bare number %d is not a calendar expression", n.Val)
	case *callang.StringLit:
		return 0, fmt.Errorf("plan: string literal %q outside a call or return", n.Val)
	case *callang.ForeachExpr:
		yWin := c.narrowed(n.Y, win)
		b, err := c.compile(n.Y, yWin)
		if err != nil {
			return 0, err
		}
		// X must be generated over the hull of Y's possible elements
		// (including units straddling Y's window), not merely the node
		// window: the second day of a week straddling January 1st lies in
		// December.
		xWin := c.outerWin(n.Y, yWin)
		if c.env.DisableWindowInference {
			xWin = xWin.Hull(c.base)
		}
		switch n.Op {
		case interval.Before, interval.BeforeEquals:
			// Elements preceding Y may lie anywhere at or after the base
			// window's start.
			if c.base.Lo < xWin.Lo {
				xWin = interval.Interval{Lo: c.base.Lo, Hi: xWin.Hi}
			}
		}
		a, err := c.compile(n.X, xWin)
		if err != nil {
			return 0, err
		}
		return c.emit(Op{Kind: OpForeach, A: a, B: b, ListOp: n.Op, Strict: n.Strict}), nil
	case *callang.IntersectExpr:
		a, err := c.compile(n.X, win)
		if err != nil {
			return 0, err
		}
		b, err := c.compile(n.Y, win)
		if err != nil {
			return 0, err
		}
		return c.emit(Op{Kind: OpIntersect, A: a, B: b}), nil
	case *callang.BinExpr:
		a, err := c.compile(n.X, win)
		if err != nil {
			return 0, err
		}
		b, err := c.compile(n.Y, win)
		if err != nil {
			return 0, err
		}
		k := OpUnion
		if n.Op == '-' {
			k = OpDiff
		}
		return c.emit(Op{Kind: k, A: a, B: b}), nil
	case *callang.SelectExpr:
		a, err := c.compile(n.X, win)
		if err != nil {
			return 0, err
		}
		if err := n.Pred.Check(); err != nil {
			return 0, err
		}
		return c.emit(Op{Kind: OpSelect, Sel: n.Pred, A: a}), nil
	case *callang.LabelSelExpr:
		id, ok := n.X.(*callang.Ident)
		if !ok {
			return 0, fmt.Errorf("plan: label selection %d/ requires a basic calendar, got %s", n.Num, n.X)
		}
		g, err := chronology.ParseGranularity(id.Name)
		if err != nil {
			return 0, fmt.Errorf("plan: label selection %d/%s requires a basic calendar", n.Num, id.Name)
		}
		tick, err := c.labelTick(g, n.Num)
		if err != nil {
			return 0, err
		}
		return c.emit(Op{Kind: OpUnit, Of: g, Tick: tick}), nil
	case *callang.CallExpr:
		return c.compileCall(n, win)
	}
	return 0, fmt.Errorf("plan: cannot compile %T", e)
}

func (c *compiler) compileIdent(n *callang.Ident, win interval.Interval) (Reg, error) {
	name := n.Name
	if callang.IsToday(name) {
		return c.emit(Op{Kind: OpToday}), nil
	}
	if c.vars[name] {
		return c.emit(Op{Kind: OpVar, Name: name}), nil
	}
	if g, err := chronology.ParseGranularity(name); err == nil {
		if g.Finer(c.plan.Gran) {
			return 0, fmt.Errorf("plan: calendar %s is finer than the plan granularity %v", name, c.plan.Gran)
		}
		return c.emit(Op{Kind: OpGenerate, Of: g, Win: win}), nil
	}
	if _, ok := c.env.Cat.StoredCalendar(name); ok {
		return c.emit(Op{Kind: OpLoad, Name: name}), nil
	}
	if _, ok := c.env.Cat.DerivationOf(name); ok {
		return c.emit(Op{Kind: OpDerived, Name: name, Win: win}), nil
	}
	return 0, fmt.Errorf("plan: unknown calendar %q", name)
}

func (c *compiler) compileCall(n *callang.CallExpr, win interval.Interval) (Reg, error) {
	switch n.Name {
	case "generate":
		if len(n.Args) != 4 {
			return 0, fmt.Errorf("plan: generate takes (cal, cal, from, to), got %d args", len(n.Args))
		}
		ofID, ok1 := n.Args[0].(*callang.Ident)
		inID, ok2 := n.Args[1].(*callang.Ident)
		if !ok1 || !ok2 {
			return 0, fmt.Errorf("plan: generate calendar arguments must be basic calendar names")
		}
		of, err := chronology.ParseGranularity(ofID.Name)
		if err != nil {
			return 0, fmt.Errorf("plan: generate: %w", err)
		}
		in, err := chronology.ParseGranularity(inID.Name)
		if err != nil {
			return 0, fmt.Errorf("plan: generate: %w", err)
		}
		if in.Coarser(c.plan.Gran) {
			return 0, fmt.Errorf("plan: generate in %v units is coarser than plan granularity %v", in, c.plan.Gran)
		}
		from, err := callDate(n.Args[2])
		if err != nil {
			return 0, err
		}
		to, err := callDate(n.Args[3])
		if err != nil {
			return 0, err
		}
		gwin, err := CivilWindow(c.env.Chron, in, from, to)
		if err != nil {
			return 0, err
		}
		return c.emit(Op{Kind: OpGenerateCall, Of: of, In: in, Win: gwin}), nil
	case "caloperate":
		if len(n.Args) < 2 {
			return 0, fmt.Errorf("plan: caloperate takes (cal, count, ...)")
		}
		a, err := c.compile(n.Args[0], win)
		if err != nil {
			return 0, err
		}
		counts := make([]int, 0, len(n.Args)-1)
		for _, arg := range n.Args[1:] {
			num, ok := arg.(*callang.Number)
			if !ok {
				return 0, fmt.Errorf("plan: caloperate counts must be integers, got %s", arg)
			}
			counts = append(counts, int(num.Val))
		}
		return c.emit(Op{Kind: OpCaloperate, A: a, Counts: counts}), nil
	case "interval":
		args, gran, err := c.litArgs(n.Args)
		if err != nil {
			return 0, err
		}
		if len(args) != 2 {
			return 0, fmt.Errorf("plan: interval takes (lo, hi [, GRAN])")
		}
		iv, err := interval.New(args[0], args[1])
		if err != nil {
			return 0, err
		}
		lit, err := calendar.FromIntervals(gran, []interval.Interval{iv})
		if err != nil {
			return 0, err
		}
		return c.emitConst(lit)
	case "points":
		args, gran, err := c.litArgs(n.Args)
		if err != nil {
			return 0, err
		}
		if len(args) == 0 {
			return 0, fmt.Errorf("plan: points takes at least one tick")
		}
		lit, err := calendar.FromPoints(gran, args)
		if err != nil {
			return 0, err
		}
		return c.emitConst(lit)
	}
	return 0, fmt.Errorf("plan: unknown function %q", n.Name)
}

// litArgs decodes the integer arguments of interval()/points(), with an
// optional trailing granularity name declaring their tick unit (default:
// the plan granularity).
func (c *compiler) litArgs(args []callang.Expr) ([]chronology.Tick, chronology.Granularity, error) {
	gran := c.plan.Gran
	if len(args) > 0 {
		if id, ok := args[len(args)-1].(*callang.Ident); ok {
			g, err := chronology.ParseGranularity(id.Name)
			if err != nil {
				return nil, 0, fmt.Errorf("plan: literal granularity: %w", err)
			}
			gran = g
			args = args[:len(args)-1]
		}
	}
	ticks := make([]chronology.Tick, 0, len(args))
	for _, arg := range args {
		num, ok := arg.(*callang.Number)
		if !ok {
			return nil, 0, fmt.Errorf("plan: literal arguments must be integers, got %s", arg)
		}
		ticks = append(ticks, num.Val)
	}
	return ticks, gran, nil
}

// emitConst loads a literal calendar, converting its declared granularity to
// the plan granularity.
func (c *compiler) emitConst(lit *calendar.Calendar) (Reg, error) {
	conv, err := calendar.ConvertGran(c.env.Chron, lit, c.plan.Gran)
	if err != nil {
		return 0, err
	}
	return c.emit(Op{Kind: OpConst, Lit: conv}), nil
}

func callDate(e callang.Expr) (chronology.Civil, error) {
	s, ok := e.(*callang.StringLit)
	if !ok {
		return chronology.Civil{}, fmt.Errorf("plan: date argument must be a string, got %s", e)
	}
	return chronology.ParseCivil(s.Val)
}
