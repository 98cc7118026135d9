// Package symbolic lowers calendar expressions to periodic patterns at
// compile time: the symbolic pattern calculus of the calvet CV010–CV013
// diagnostics and the scheduler's exact fast path.
//
// Eval walks an expression bottom-up, composing periodic.Pattern values
// through the window-independent operators — basic-calendar generation,
// union, difference, point-set intersection, during/overlaps/meets foreach
// groupings and their per-group selections — without materializing a single
// interval list. The result is the expression's infinite element list in
// closed form: expanding it over any window equals evaluating the expression
// over that window (away from generation-edge effects), which makes
// emptiness, equivalence, and selection-cardinality questions decidable
// before any evaluation runs.
//
// The calculus is deliberately partial. Window-anchored constructs (`today`,
// order-1 selections, flattened before/before-equals groupings, label
// selections, stored calendars, derivations that branch, wait or alert) have
// no window-independent element list, and some compositions have no compact
// periodic form; Eval reports ok=false for these and callers fall back to
// materialization. A nil pattern with ok=true is a proof that the expression
// is empty everywhere. End-relative selections over before/before-equals
// groupings ([n]/(X:<:Y), negative positions, all-negative ranges) are the
// exception: counting from the end of an unbounded prefix is
// window-independent, so they lower (ForeachSelectEnd).
package symbolic

import (
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/interval"
	"calsys/internal/core/periodic"
)

// maxDepth bounds derivation-chain recursion (cyclic catalogs would
// otherwise loop forever).
const maxDepth = 32

// Eval lowers e — an expression whose evaluation ticks have granularity
// gran — to the symbolic pattern of its flattened element list, in tick
// offsets of gran. ok=false means the expression has no symbolic form and
// the caller must materialize; a nil pattern with ok=true proves the
// expression empty on every window. Derived-calendar names lower exactly
// when the plan inliner would replace them (callang.InlineBody): a name with
// a bounded lifespan is clipped when materialized and is therefore not the
// periodic list its derivation alone denotes.
func Eval(ch *chronology.Chronology, cat callang.ScriptLookup, e callang.Expr, gran chronology.Granularity) (*periodic.Pattern, bool) {
	l := &lowerer{ch: ch, cat: cat, gran: gran}
	return l.lower(e, 0)
}

type lowerer struct {
	ch   *chronology.Chronology
	cat  callang.ScriptLookup
	gran chronology.Granularity
}

func (l *lowerer) lower(e callang.Expr, depth int) (*periodic.Pattern, bool) {
	if depth > maxDepth {
		return nil, false
	}
	switch n := e.(type) {
	case *callang.Ident:
		if g, err := chronology.ParseGranularity(n.Name); err == nil {
			p, err := periodic.ForBasicPair(l.ch, g, l.gran)
			if err != nil {
				return nil, false
			}
			return p, true
		}
		inner, ok := callang.InlineBody(l.cat, n.Name)
		if !ok {
			return nil, false
		}
		return l.lower(inner, depth+1)
	case *callang.ForeachExpr:
		x, ok := l.lower(n.X, depth+1)
		if !ok {
			return nil, false
		}
		y, ok := l.lower(n.Y, depth+1)
		if !ok {
			return nil, false
		}
		return periodic.ForeachFlat(x, y, n.Op, n.Strict)
	case *callang.IntersectExpr:
		x, ok := l.lower(n.X, depth+1)
		if !ok {
			return nil, false
		}
		y, ok := l.lower(n.Y, depth+1)
		if !ok {
			return nil, false
		}
		return periodic.SetIntersect(x, y)
	case *callang.BinExpr:
		x, ok := l.lower(n.X, depth+1)
		if !ok {
			return nil, false
		}
		y, ok := l.lower(n.Y, depth+1)
		if !ok {
			return nil, false
		}
		switch n.Op {
		case '+':
			return periodic.SetUnion(x, y)
		case '-':
			return periodic.SetDiff(x, y)
		}
		return nil, false
	case *callang.SelectExpr:
		// Only per-group selection over a foreach grouping is
		// window-independent; [k]/DAYS counts from the evaluation window's
		// edge and has no symbolic form. Peel derived-calendar names the same
		// way the plan inliner would, so [2]/WORKWEEK sees the grouping.
		fe, ok := l.resolveForeach(n.X, depth+1)
		if !ok {
			return nil, false
		}
		if n.Pred.Check() != nil {
			return nil, false
		}
		x, ok := l.lower(fe.X, depth+1)
		if !ok {
			return nil, false
		}
		y, ok := l.lower(fe.Y, depth+1)
		if !ok {
			return nil, false
		}
		if fe.Op == interval.Before || fe.Op == interval.BeforeEquals {
			// A before/before-equals grouping collects an unbounded prefix —
			// its flattened value is window-anchored — but a selection that
			// counts only from the end of each group ([n], negative
			// positions, all-negative ranges) is window-independent: the
			// k-th-from-last element before each y is fixed index arithmetic
			// on x. The paper's [n]/AM_BUS_DAYS:<:LDOM_HOL idiom lands here.
			ends, ok := endOffsets(n.Pred)
			if !ok {
				return nil, false
			}
			return periodic.ForeachSelectEnd(x, y, fe.Op, fe.Strict, ends)
		}
		return periodic.ForeachSelect(x, y, fe.Op, fe.Strict, n.Pred.Indices)
	}
	// today, numbers, strings, label selections, generate()/caloperate()
	// calls: window-anchored or non-calendar — no symbolic form.
	return nil, false
}

// endOffsets translates a selection predicate into negative end-relative
// member offsets (−1 the last member, −2 the one before it, …) when every
// term counts from the end of the group: [n] → −1, a negative position → the
// position, an all-negative range → its offsets in ascending order. Any term
// anchored to the front of the group — a positive position or a range with a
// positive endpoint — reports ok=false: over an unbounded-prefix grouping
// such a selection is window-anchored and must materialize.
func endOffsets(s calendar.Selection) ([]int, bool) {
	out := make([]int, 0, len(s.Items))
	for _, it := range s.Items {
		switch {
		case it.Last:
			out = append(out, -1)
		case it.Range:
			if it.From >= 0 || it.To >= 0 {
				return nil, false
			}
			for o := it.From; o <= it.To; o++ {
				out = append(out, o)
			}
		case it.Pos < 0:
			out = append(out, it.Pos)
		default:
			return nil, false
		}
	}
	return out, true
}

// resolveForeach peels inlinable derivation names off e until a foreach
// grouping (or anything else) surfaces.
func (l *lowerer) resolveForeach(e callang.Expr, depth int) (*callang.ForeachExpr, bool) {
	for d := depth; d <= maxDepth; d++ {
		switch n := e.(type) {
		case *callang.ForeachExpr:
			return n, true
		case *callang.Ident:
			inner, ok := callang.InlineBody(l.cat, n.Name)
			if !ok {
				return nil, false
			}
			e = inner
		default:
			return nil, false
		}
	}
	return nil, false
}

// GroupCards returns the exact minimum and maximum group cardinality the
// foreach grouping fe ever produces, when both operands lower symbolically.
// A selection position beyond max provably never selects anything (CV012);
// positions within [1, min] always do.
func GroupCards(ch *chronology.Chronology, cat callang.ScriptLookup, fe *callang.ForeachExpr, gran chronology.Granularity) (min, max int, ok bool) {
	l := &lowerer{ch: ch, cat: cat, gran: gran}
	x, ok := l.lower(fe.X, 0)
	if !ok {
		return 0, 0, false
	}
	y, ok := l.lower(fe.Y, 0)
	if !ok {
		return 0, 0, false
	}
	return periodic.ForeachCards(x, y, fe.Op)
}

// EmptyKey is the equivalence key of the provably empty element list.
const EmptyKey = "empty"

// ListKey returns a cross-granularity equivalence key for the expression's
// element list: the canonical string of the list re-expressed in epoch
// seconds. Two expressions with equal keys cover the same elements on every
// window, whatever granularities they were written in. ok=false means the
// expression (or the seconds conversion) has no symbolic form.
func ListKey(ch *chronology.Chronology, cat callang.ScriptLookup, e callang.Expr, gran chronology.Granularity) (string, bool) {
	p, ok := Eval(ch, cat, e, gran)
	if !ok {
		return "", false
	}
	return secondsKey(ch, p, gran, false)
}

// FiringKey returns a cross-granularity key for the instants at which a
// temporal rule over the lowered element list p (tick offsets of gran) fires:
// the canonical seconds pattern of the element starts. Rules with equal
// firing keys fire at identical instants and can be merged. It takes the
// pattern, not the expression, so the caller chooses the lowering (the rule
// engine's keeps lifespan-bounded names opaque).
func FiringKey(ch *chronology.Chronology, p *periodic.Pattern, gran chronology.Granularity) (string, bool) {
	return secondsKey(ch, p, gran, true)
}

func secondsKey(ch *chronology.Chronology, p *periodic.Pattern, gran chronology.Granularity, starts bool) (string, bool) {
	sp, ok := p.InSeconds(ch, gran)
	if !ok {
		return "", false
	}
	if sp == nil {
		return EmptyKey, true
	}
	if starts {
		// Starts after the seconds conversion, so a daily rule and an
		// hourly rule that both fire at midnight get the same key.
		sp = sp.Starts()
	}
	return sp.Canonical().String(), true
}
