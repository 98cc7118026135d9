package callang

import (
	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// KindResolver reports the element kind of a named calendar: the basic
// granularity its elements are units of (WEEKS elements are weeks even when
// their ticks are expressed in days). Basic calendar names resolve to
// themselves; the catalog supplies kinds for stored and derived calendars.
type KindResolver interface {
	ElemKindOf(name string) (chronology.Granularity, bool)
}

// KindMap is a KindResolver over a map. Basic calendar names are always
// resolved, even with an empty map.
type KindMap map[string]chronology.Granularity

// ElemKindOf implements KindResolver.
func (m KindMap) ElemKindOf(name string) (chronology.Granularity, bool) {
	if g, err := chronology.ParseGranularity(name); err == nil {
		return g, true
	}
	g, ok := m[name]
	return g, ok
}

// ElemKind computes the element kind of an expression, per the factorization
// rule's granularity comparison ("if the granularity of Y and Z are the
// same"). Selection and foreach preserve the kind of their subject calendar.
func ElemKind(e Expr, kinds KindResolver) (chronology.Granularity, bool) {
	switch n := e.(type) {
	case *Ident:
		return kinds.ElemKindOf(n.Name)
	case *SelectExpr:
		return ElemKind(n.X, kinds)
	case *LabelSelExpr:
		return ElemKind(n.X, kinds)
	case *ForeachExpr:
		return ElemKind(n.X, kinds)
	case *IntersectExpr:
		return ElemKind(n.X, kinds)
	case *BinExpr:
		return ElemKind(n.X, kinds)
	case *CallExpr:
		if n.Name == "generate" && len(n.Args) >= 1 {
			return ElemKind(n.Args[0], kinds)
		}
		return 0, false
	}
	return 0, false
}

// equalExpr compares expressions structurally via their canonical rendering.
func equalExpr(a, b Expr) bool { return a.String() == b.String() }

// SubsetOf conservatively decides the rule's "Z ∈ Y" condition: every
// element of Z is an element of Y. It holds when Z is Y itself, a selection
// over something subset of Y, a during-foreach over something subset of Y
// (during keeps elements whole), any relaxed foreach over a subset of Y, or
// an intersection with one side subset of Y.
func SubsetOf(z, y Expr) bool {
	if equalExpr(z, y) {
		return true
	}
	switch n := z.(type) {
	case *SelectExpr:
		return SubsetOf(n.X, y)
	case *LabelSelExpr:
		return SubsetOf(n.X, y)
	case *ForeachExpr:
		if n.Op == interval.During || !n.Strict {
			return SubsetOf(n.X, y)
		}
		return false
	case *IntersectExpr:
		return SubsetOf(n.X, y) || SubsetOf(n.Y, y)
	}
	return false
}

// Factorize applies the rewrite rule of the parsing algorithm (§3.4) until a
// fixpoint:
//
//	{(X : Op1 : Y) : Op2 : Z}  →  {X : Op1 : Z}
//
// when gran(Y) = gran(Z) and Z ∈ Y — "except when Op1 is ≤ and Op2 is ≤; in
// the latter case the expression is reduced to {X : Op2 : Z}". The rule also
// fires through selection wrappers, as in the paper's Example 2 where X is
// [3]/WEEKS.
func Factorize(e Expr, kinds KindResolver) Expr {
	for {
		out := factorizeOnce(e, kinds, false)
		if out == e {
			return e
		}
		e = out
	}
}

// factorizeOnce applies the rule at the outermost foreach nodes where it
// matches, returning e itself when it matches nowhere. The rewrite keeps a
// grouping's elements, not how they nest (it can drop a level of grouping),
// so the foreach a selection picks within — subject — is left as written.
func factorizeOnce(e Expr, kinds KindResolver, subject bool) Expr {
	if n, ok := e.(*ForeachExpr); ok && !subject {
		if out, ok := applyRule(n, kinds); ok {
			return out
		}
	}
	_, sel := e.(*SelectExpr)
	return MapChildren(e, func(c Expr) Expr { return factorizeOnce(c, kinds, sel) })
}

// peelWrappers strips selection wrappers off an expression, returning the
// wrapped core and the wrappers outermost-first.
func peelWrappers(e Expr) (Expr, []Expr) {
	var wrappers []Expr
	cur := e
	for {
		switch w := cur.(type) {
		case *SelectExpr:
			wrappers = append(wrappers, w)
			cur = w.X
		case *LabelSelExpr:
			wrappers = append(wrappers, w)
			cur = w.X
		default:
			return cur, wrappers
		}
	}
}

// isBeforeOp reports whether op is one of the paper's ordering operators <
// and <=, the ops named by the §3.4 exception.
func isBeforeOp(op interval.ListOp) bool {
	return op == interval.Before || op == interval.BeforeEquals
}

// RuleMatch reports whether the §3.4 factorization preconditions hold at the
// root of outer: outer.X is (possibly selection-wrapped) an inner foreach
// {X : Op1 : Y}, gran(Y) = gran(Z), and Z ∈ Y. It returns the inner foreach
// when they do.
func RuleMatch(outer *ForeachExpr, kinds KindResolver) (*ForeachExpr, bool) {
	cur, _ := peelWrappers(outer.X)
	inner, ok := cur.(*ForeachExpr)
	if !ok {
		return nil, false
	}
	y, z := inner.Y, outer.Y
	gy, oky := ElemKind(y, kinds)
	gz, okz := ElemKind(z, kinds)
	if !oky || !okz || gy != gz {
		return nil, false
	}
	if !SubsetOf(z, y) {
		return nil, false
	}
	return inner, true
}

// BlockedByBeforeException reports whether the §3.4 rewrite at the root of
// outer matches the rule's preconditions but is withheld because of the
// paper's `<`/`<=` exception: when both operators order elements (`<` or
// `<=`) the only combination the paper sanctions is ≤/≤ (reduced to
// {X : Op2 : Z}); any other mix of ordering operators is left untouched, as
// the rewrite would change which elements precede which.
func BlockedByBeforeException(outer *ForeachExpr, kinds KindResolver) bool {
	inner, ok := RuleMatch(outer, kinds)
	if !ok {
		return false
	}
	if !isBeforeOp(inner.Op) || !isBeforeOp(outer.Op) {
		return false
	}
	return !(inner.Op == interval.BeforeEquals && outer.Op == interval.BeforeEquals)
}

// applyRule attempts the factorization rewrite at the root of outer, peeling
// selection wrappers off the left operand to expose the inner foreach.
func applyRule(outer *ForeachExpr, kinds KindResolver) (Expr, bool) {
	inner, ok := RuleMatch(outer, kinds)
	if !ok {
		return nil, false
	}
	if BlockedByBeforeException(outer, kinds) {
		return nil, false
	}
	_, wrappers := peelWrappers(outer.X)
	z := outer.Y
	op := inner.Op
	if inner.Op == interval.BeforeEquals && outer.Op == interval.BeforeEquals {
		// The paper's stated exception: reduce to {X : Op2 : Z}.
		op = outer.Op
	}
	rewritten := Expr(&ForeachExpr{X: inner.X, Op: op, Strict: inner.Strict, Y: z, Pos: inner.Pos})
	// Re-apply the peeled selection wrappers innermost-first.
	for i := len(wrappers) - 1; i >= 0; i-- {
		core := rewritten
		rewritten = MapChildren(wrappers[i], func(Expr) Expr { return core })
	}
	return rewritten, true
}
