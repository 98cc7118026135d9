package callang

import (
	"fmt"
	"slices"
	"strings"

	"calsys/internal/chronology"
)

// ScriptLookup resolves a derived calendar's derivation script. The database
// catalog (table CALENDARS) implements this; tests use maps.
type ScriptLookup interface {
	// DerivationOf returns the parsed derivation script of a derived
	// calendar, or ok=false if name is not a derived calendar (it may then
	// be a basic calendar, a stored calendar, or a script temporary).
	DerivationOf(name string) (*Script, bool)
}

// ScriptMap is a ScriptLookup over a map (testing convenience).
type ScriptMap map[string]*Script

// DerivationOf implements ScriptLookup.
func (m ScriptMap) DerivationOf(name string) (*Script, bool) {
	s, ok := m[name]
	return s, ok
}

// LifespanLookup is the optional catalog extension reporting the validity
// range of a named calendar in day ticks (the lifespan column of Figure 1).
type LifespanLookup interface {
	LifespanOf(name string) (lo, hi chronology.Tick, ok bool)
}

// UnboundedDayTick marks an open lifespan upper bound (the ∞ of Figure 1).
const UnboundedDayTick = 3_000_000

// BoundedLifespan returns the lifespan the catalog declares for name when it
// bounds the calendar on either side. (1, ∞) — from the first tick of the
// epoch on, what every definition gets that does not say otherwise — bounds
// nothing. A bounded calendar's stored values and derived value are clipped
// to the lifespan, and its derivation is never inlined (InlineBody), so the
// clip cannot be lost; an unbounded one is clipped on no path.
func BoundedLifespan(cat any, name string) (lo, hi chronology.Tick, bounded bool) {
	lc, ok := cat.(LifespanLookup)
	if !ok {
		return 0, 0, false
	}
	lo, hi, ok = lc.LifespanOf(name)
	return lo, hi, ok && (lo != 1 || hi < UnboundedDayTick)
}

// InlineBody is the one eligibility rule for replacing a reference to a
// derived calendar by its derivation: the derivation is an expression
// (Script.AsExpr) and the catalog declares no bounded lifespan for it. The
// inliner, the symbolic lowering and the parse-tree rendering all ask it, so
// a name is a periodic list exactly when it is inlined.
func InlineBody(lookup ScriptLookup, name string) (Expr, bool) {
	if lookup == nil {
		return nil, false
	}
	script, ok := lookup.DerivationOf(name)
	if !ok {
		return nil, false
	}
	if _, _, bounded := BoundedLifespan(lookup, name); bounded {
		return nil, false
	}
	return script.AsExpr()
}

// maxInlineDepth bounds derivation chains to catch mutually recursive
// calendar definitions.
const maxInlineDepth = 32

// Inline implements the first step of the parsing algorithm of §3.4: "When a
// derived calendar is encountered, replace it by its derivation script."
// Derivations InlineBody admits are inlined; the rest (scripts with if/while,
// alerts, bounded lifespans) stay opaque references evaluated through their
// own plans. Every name in e is a catalog name: a script's temporaries are
// substituted (Subst) before its expressions get here.
func Inline(e Expr, lookup ScriptLookup) (Expr, error) {
	return inlineRec(e, lookup, nil, 0)
}

// CyclePath renders a derivation cycle like "A → B → A" for error messages
// and diagnostics: the chain of calendar names, closed with the repeated
// name.
func CyclePath(path []string) string { return strings.Join(path, " → ") }

func inlineRec(e Expr, lookup ScriptLookup, path []string, depth int) (Expr, error) {
	if depth > maxInlineDepth {
		return nil, fmt.Errorf("callang: derivation chain deeper than %d (recursive calendar definition?): %s",
			maxInlineDepth, CyclePath(path))
	}
	if n, ok := e.(*Ident); ok {
		body, ok := InlineBody(lookup, n.Name)
		if !ok {
			return n, nil
		}
		if slices.Contains(path, n.Name) {
			return nil, fmt.Errorf("callang: calendar %q is defined in terms of itself: %s",
				n.Name, CyclePath(append(path, n.Name)))
		}
		return inlineRec(body, lookup, append(path, n.Name), depth+1)
	}
	var err error
	out := MapChildren(e, func(c Expr) Expr {
		if err == nil {
			var x Expr
			if x, err = inlineRec(c, lookup, path, depth); err == nil {
				return x
			}
		}
		return c
	})
	return out, err
}

// maxExprNodes is the node budget of a substituted expression. Substitution
// shares subtrees, so `a = X + X; b = a + a; …` is linear to build but 2ⁿ to
// walk, print or compile.
const maxExprNodes = 1024

// Subst is the one meaning of a script temporary, for Script.AsExpr and the
// script runner alike: each temporary assigned so far maps to the expression
// it was assigned, the temporaries assigned before it replaced in it.
type Subst map[string]Expr

// Apply replaces the temporaries e reads by their expressions, so a name read
// before its assignment is still the catalog's. Names resolve the way the
// compiler resolves them (`today` cannot be assigned): a label selection's
// operand and the arguments of every call but caloperate's first are basic
// calendars or literals, and are left alone. Past maxExprNodes it fails.
func (s Subst) Apply(e Expr) (Expr, error) {
	var subst func(Expr) Expr
	subst = func(e Expr) Expr {
		switch n := e.(type) {
		case *Ident:
			if x, ok := s[n.Name]; ok {
				return x
			}
		case *CallExpr:
			if n.Name == "caloperate" && len(n.Args) > 0 {
				c := *n
				c.Args = append([]Expr{subst(n.Args[0])}, n.Args[1:]...)
				return &c
			}
			return n
		case *LabelSelExpr:
			return n
		}
		return MapChildren(e, subst)
	}
	out := subst(e)
	if !nodesWithin(out, maxExprNodes) {
		return nil, fmt.Errorf("callang: %v: more than %d nodes once its temporaries are substituted", ExprPos(e), maxExprNodes)
	}
	return out, nil
}

// nodesWithin reports whether e has at most limit nodes, visiting no more
// than limit+1 of them.
func nodesWithin(e Expr, limit int) bool {
	n := 0
	var visit func(Expr) Expr
	visit = func(x Expr) Expr {
		if n++; n <= limit {
			MapChildren(x, visit)
		}
		return x
	}
	visit(e)
	return n <= limit
}

// substitute turns straight-line statements into the one expression they
// compute (Subst), or nil. The statements stay a script when running them
// could do anything the expression would not: a branch, a loop, an alert
// string, statements after the result, a non-calendar right-hand side, or a
// result past the node budget.
func substitute(stmts []Stmt) Expr {
	s := Subst{}
	for i, st := range stmts {
		var x Expr
		switch n := st.(type) {
		case *AssignStmt:
			switch n.X.(type) {
			case *Number, *StringLit:
				return nil
			}
			x = n.X
		case *ReturnStmt:
			if _, alert := n.X.(*StringLit); alert {
				return nil
			}
			x = n.X
		case *ExprStmt:
			x = n.X
		default:
			return nil
		}
		out, err := s.Apply(x)
		if err != nil {
			return nil
		}
		if a, ok := st.(*AssignStmt); ok {
			s[a.Name] = out
			continue
		}
		if i != len(stmts)-1 {
			return nil
		}
		return out
	}
	return nil
}
