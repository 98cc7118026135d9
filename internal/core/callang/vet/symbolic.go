// symbolic.go is the symbolic-calculus pass of calvet: CV010–CV013 plus the
// fleet-level catalog equivalence analysis. Where the passes of calvet.go
// reason syntactically, this pass lowers expressions to periodic patterns
// (internal/core/callang/symbolic) and decides emptiness, equivalence,
// subsumption, and exact group cardinalities on the patterns themselves —
// every verdict it reports is a proof about the infinite element list, not a
// heuristic about one window.
package calvet

import (
	"fmt"
	"sort"
	"strings"

	"calsys/internal/chronology"
	"calsys/internal/core/callang"
	"calsys/internal/core/callang/symbolic"
	"calsys/internal/core/periodic"
)

// defaultChron anchors symbolic analysis when Options.Chron is nil.
var defaultChron = chronology.MustNew(chronology.DefaultEpoch)

func (v *vetter) chron() *chronology.Chronology {
	if v.opts.Chron != nil {
		return v.opts.Chron
	}
	return defaultChron
}

// granOf picks the tick granularity at which to lower an expression — the
// same finest-unit rule the plan compiler uses. The choice only affects the
// lowering, not the verdicts: emptiness, cardinalities and the seconds-based
// equivalence keys are granularity-invariant.
func (v *vetter) granOf(e callang.Expr) chronology.Granularity {
	return callang.Analyze(e, v.cat).TickGran
}

// checkSymbolic runs the whole-script symbolic checks: CV010 (provably empty
// value) and CV011 (equivalent to an existing catalog definition) on scripts
// that are an expression (callang.Script.AsExpr), and CV013 (subsumed union
// arm) on every union node of every statement.
func (v *vetter) checkSymbolic(s *callang.Script) {
	callang.WalkStmts(s.Stmts, func(_ callang.Stmt, x callang.Expr) {
		callang.Walk(x, func(e callang.Expr) {
			if b, ok := e.(*callang.BinExpr); ok && b.Op == '+' {
				v.checkUnionArms(b)
			}
		})
	})
	e, ok := s.AsExpr()
	if !ok {
		return
	}
	pat, ok := symbolic.Eval(v.chron(), v.cat, e, v.granOf(e))
	if !ok {
		return
	}
	if pat == nil {
		v.report(callang.ExprPos(e), Warning, CodeEmptyCalendar,
			"calendar expression is provably empty on every window")
		return
	}
	v.checkEquivalent(e, pat)
}

// checkUnionArms is CV013: when both arms of a "+" lower symbolically and
// one arm's elements are all present in the other, the union adds nothing.
func (v *vetter) checkUnionArms(n *callang.BinExpr) {
	ch, gran := v.chron(), v.granOf(n)
	x, okx := symbolic.Eval(ch, v.cat, n.X, gran)
	if !okx {
		return
	}
	y, oky := symbolic.Eval(ch, v.cat, n.Y, gran)
	if !oky {
		return
	}
	u, ok := periodic.SetUnion(x, y)
	if !ok {
		return
	}
	sameX, sameY := periodic.SameList(u, x), periodic.SameList(u, y)
	switch {
	case sameX && sameY:
		v.report(n.Pos, Warning, CodeSubsumedArm,
			"both arms of \"+\" denote the same calendar; drop either arm")
	case sameX:
		v.report(n.Pos, Warning, CodeSubsumedArm,
			"right arm of \"+\" is subsumed: every element of %s is already in %s", n.Y, n.X)
	case sameY:
		v.report(n.Pos, Warning, CodeSubsumedArm,
			"left arm of \"+\" is subsumed: every element of %s is already in %s", n.X, n.Y)
	}
}

// NameLister is the optional Catalog extension CV011 and AnalyzeCatalog need:
// the full list of defined calendar names. caldb.Manager implements it.
type NameLister interface {
	Names() []string
}

// Names implements NameLister for the in-memory catalog.
func (m *MapCatalog) Names() []string {
	seen := map[string]bool{}
	var out []string
	for name := range m.Scripts {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for name := range m.Kinds {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// checkEquivalent is CV011: the definition under vet denotes exactly the
// same element list as one or more calendars already in the catalog.
func (v *vetter) checkEquivalent(e callang.Expr, pat *periodic.Pattern) {
	lister, ok := v.cat.(NameLister)
	if !ok || v.opts.SelfName == "" {
		return
	}
	key, ok := pat.InSeconds(v.chron(), v.granOf(e))
	if !ok || key == nil {
		return
	}
	selfKey := key.Canonical().String()
	var same []string
	for _, name := range lister.Names() {
		if strings.EqualFold(name, v.opts.SelfName) {
			continue
		}
		if k, ok := v.nameKey(name); ok && k == selfKey {
			same = append(same, name)
		}
	}
	if len(same) == 0 {
		return
	}
	sort.Strings(same)
	v.report(callang.ExprPos(e), Warning, CodeEquivalentDef,
		"expression is equivalent to the existing calendar %s; consider referencing it instead of redefining the set",
		strings.Join(same, ", "))
}

// nameKey is the catalog entry's seconds-canonical list key, when its
// derivation lowers symbolically.
func (v *vetter) nameKey(name string) (string, bool) {
	if _, isDerived := v.cat.DerivationOf(name); !isDerived {
		return "", false
	}
	ident := &callang.Ident{Name: name}
	k, ok := symbolic.ListKey(v.chron(), v.cat, ident, v.granOf(ident))
	return k, ok && k != symbolic.EmptyKey
}

// exactCards returns the exact group-cardinality range of a selection
// subject, when it is a foreach grouping whose operands lower symbolically.
func (v *vetter) exactCards(x callang.Expr) (min, max int, ok bool) {
	fe, isFe := x.(*callang.ForeachExpr)
	if !isFe {
		return 0, 0, false
	}
	return symbolic.GroupCards(v.chron(), v.cat, fe, v.granOf(fe))
}

// --- fleet-level analysis ------------------------------------------------

// EquivClass is one group of catalog definitions denoting the same element
// list: candidates for merging into aliases of a single calendar.
type EquivClass struct {
	// Key is the shared seconds-canonical pattern key.
	Key string
	// Names are the member calendars, sorted.
	Names []string
}

// AnalyzeCatalog canonicalizes every symbolically-lowerable definition of the
// catalog and groups equivalent ones — the fleet-wide dedup diagnostic
// behind `calvet -fleet` and `rules.VetFleet`. The catalog must implement
// NameLister; each definition's key is computed once, so the pass is linear
// in the catalog size. Classes are sorted by their first member name.
func AnalyzeCatalog(cat Catalog, opts Options) []EquivClass {
	lister, ok := cat.(NameLister)
	if !ok {
		return nil
	}
	v := &vetter{cat: cat, opts: opts}
	byKey := map[string][]string{}
	for _, name := range lister.Names() {
		if k, ok := v.nameKey(name); ok {
			byKey[k] = append(byKey[k], name)
		}
	}
	var out []EquivClass
	for k, names := range byKey {
		if len(names) < 2 {
			continue
		}
		sort.Strings(names)
		out = append(out, EquivClass{Key: k, Names: names})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Names[0] < out[j].Names[0] })
	return out
}

// String renders the class as the merge suggestion the fleet analyzer
// prints.
func (c EquivClass) String() string {
	return fmt.Sprintf("%s denote identical calendars; keep one and alias the rest",
		strings.Join(c.Names, ", "))
}
