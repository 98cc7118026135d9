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
// own plans. shadow names the script temporaries in scope, which hide catalog
// calendars of the same name.
func Inline(e Expr, lookup ScriptLookup, shadow map[string]bool) (Expr, error) {
	return inlineRec(e, lookup, shadow, nil, 0)
}

// CyclePath renders a derivation cycle like "A → B → A" for error messages
// and diagnostics: the chain of calendar names, closed with the repeated
// name.
func CyclePath(path []string) string { return strings.Join(path, " → ") }

func inlineRec(e Expr, lookup ScriptLookup, shadow map[string]bool, path []string, depth int) (Expr, error) {
	if depth > maxInlineDepth {
		return nil, fmt.Errorf("callang: derivation chain deeper than %d (recursive calendar definition?): %s",
			maxInlineDepth, CyclePath(path))
	}
	if n, ok := e.(*Ident); ok {
		if shadow[n.Name] {
			return n, nil
		}
		body, ok := InlineBody(lookup, n.Name)
		if !ok {
			return n, nil
		}
		if slices.Contains(path, n.Name) {
			return nil, fmt.Errorf("callang: calendar %q is defined in terms of itself: %s",
				n.Name, CyclePath(append(path, n.Name)))
		}
		// A derivation's own names are catalog names: nothing shadows them.
		return inlineRec(body, lookup, nil, append(path, n.Name), depth+1)
	}
	var err error
	out := MapChildren(e, func(c Expr) Expr {
		if err == nil {
			var x Expr
			if x, err = inlineRec(c, lookup, shadow, path, depth+1); err == nil {
				return x
			}
		}
		return c
	})
	return out, err
}

// maxExprNodes is the node budget of a script's expression form.
// Substitution shares subtrees, so `a = X + X; b = a + a; …` is linear to
// build but 2ⁿ to walk, print or compile; past the budget the script stays a
// script.
const maxExprNodes = 1024

// substitute turns straight-line statements into the one expression they
// compute, or nil. Each assignment's right-hand side, with the temporaries
// assigned so far already replaced in it, replaces later reads of its name —
// in statement order, so `x = x + A` reads the previous x and a name read
// before it is assigned is still the catalog's. Names resolve the way the
// compiler resolves them (`today` cannot be assigned, so it is never one of
// them): the operand of a label selection and the arguments of every call
// but caloperate's first are basic-calendar names or literals, never
// calendars, and are left alone.
//
// The statements stay a script when running them could do anything the
// expression would not: a branch, a loop, an alert string, statements after
// the result, a non-calendar right-hand side, or an assignment nothing reads
// (the runner evaluates it all the same, and it can fail).
func substitute(stmts []Stmt) Expr {
	type temp struct {
		x     Expr
		nodes int
		read  bool
	}
	temps := map[string]*temp{}
	nodes := 0 // of the statement being substituted; a temp counts its own
	var subst func(Expr) Expr
	subst = func(e Expr) Expr {
		switch n := e.(type) {
		case *Ident:
			if t := temps[n.Name]; t != nil {
				t.read = true
				nodes += t.nodes
				return t.x
			}
		case *CallExpr:
			if n.Name == "caloperate" && len(n.Args) > 0 {
				c := *n
				c.Args = append([]Expr{subst(n.Args[0])}, n.Args[1:]...)
				nodes += NodeCount(n) - NodeCount(n.Args[0])
				return &c
			}
			nodes += NodeCount(n)
			return n
		case *LabelSelExpr:
			nodes += NodeCount(n)
			return n
		}
		nodes++
		return MapChildren(e, subst)
	}
	for i, st := range stmts {
		nodes = 0
		var result Expr
		switch n := st.(type) {
		case *AssignStmt:
			switch n.X.(type) {
			case *Number, *StringLit:
				return nil
			}
			x := subst(n.X)
			if old := temps[n.Name]; old != nil && !old.read {
				return nil
			}
			temps[n.Name] = &temp{x: x, nodes: nodes}
		case *ReturnStmt:
			if _, alert := n.X.(*StringLit); alert {
				return nil
			}
			result = subst(n.X)
		case *ExprStmt:
			result = subst(n.X)
		default:
			return nil
		}
		if nodes > maxExprNodes {
			return nil
		}
		if result == nil {
			continue
		}
		if i != len(stmts)-1 {
			return nil
		}
		for _, t := range temps {
			if !t.read {
				return nil
			}
		}
		return result
	}
	return nil
}
