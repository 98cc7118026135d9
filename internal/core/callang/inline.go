package callang

import (
	"fmt"
	"slices"
	"strings"
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

// maxInlineDepth bounds derivation chains to catch mutually recursive
// calendar definitions.
const maxInlineDepth = 32

// Inline implements the first step of the parsing algorithm of §3.4: "When a
// derived calendar is encountered, replace it by its derivation script."
// Only derivations consisting of a single expression are inlined; calendars
// derived by multi-statement scripts (with if/while) stay opaque references
// evaluated through their own plans.
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
		script, ok := lookup.DerivationOf(n.Name)
		if !ok {
			return n, nil
		}
		body, single := script.SingleExpr()
		if !single {
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
			if x, err = inlineRec(c, lookup, path, depth+1); err == nil {
				return x
			}
		}
		return c
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
