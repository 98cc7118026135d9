// Package calvet is a static semantic analyzer for the calendar expression
// language of §3.3: a multi-pass checker over parsed scripts and expressions
// that reports positioned diagnostics with stable codes before any
// evaluation plan is compiled or run.
//
// The paper's §3.4 parsing algorithm already performs ad-hoc static work
// (derivation inlining, granularity inference, factorization-safety
// conditions); calvet turns the remaining error classes — the ones that
// today only surface deep inside plan.Compile or RunScript — into upfront,
// per-position diagnostics:
//
//	CV001  undefined calendar reference (or unknown built-in function)
//	CV002  circular derivation, with the full cycle path (A → B → A)
//	CV003  granularity mismatch across a binary list operator
//	CV004  zero selection index / zero tick (violates the no-zero convention)
//	CV005  statically out-of-range or empty selection list
//	CV006  assignment never used, or unreachable statements after return
//	CV007  while-loop with no state change in its body (non-termination)
//	CV008  volatile derivation (reads `today`/clock) — bypasses the matcache
//	CV009  factorization blocked by the §3.4 `<`/`<=` exception
//
// Errors (CV001, CV002, CV004 and empty selections from CV005) make a
// definition rejectable; the remaining codes are warnings that the catalog
// stores alongside the definition.
package calvet

import (
	"fmt"
	"sort"
	"strings"

	"calsys/internal/chronology"
	"calsys/internal/core/callang"
	"calsys/internal/core/interval"
)

// Severity grades a diagnostic.
type Severity int

// Diagnostic severities.
const (
	Warning Severity = iota
	Error
)

// String names the severity for rendering.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Stable diagnostic codes. Codes are append-only: a code's meaning never
// changes once released, so scripts and CI pipelines can filter on them.
const (
	CodeUndefinedRef   = "CV001"
	CodeCycle          = "CV002"
	CodeGranMismatch   = "CV003"
	CodeZeroIndex      = "CV004"
	CodeBadSelection   = "CV005"
	CodeDeadCode       = "CV006"
	CodeLoopNoProgress = "CV007"
	CodeVolatile       = "CV008"
	CodeFactorBlocked  = "CV009"
	CodeEmptyCalendar  = "CV010"
	CodeEquivalentDef  = "CV011"
	CodeSelectCard     = "CV012"
	CodeSubsumedArm    = "CV013"
)

// Diag is one positioned diagnostic.
type Diag struct {
	Pos      callang.Pos
	Severity Severity
	Code     string
	Msg      string
}

// String renders the diagnostic as "line:col: severity CODE: message"; the
// position is omitted when unknown (synthetic nodes).
func (d Diag) String() string {
	if d.Pos == (callang.Pos{}) {
		return fmt.Sprintf("%v %s: %s", d.Severity, d.Code, d.Msg)
	}
	return fmt.Sprintf("%v: %v %s: %s", d.Pos, d.Severity, d.Code, d.Msg)
}

// Diags is a list of diagnostics, ordered by position then code.
type Diags []Diag

// String renders one diagnostic per line.
func (ds Diags) String() string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = d.String()
	}
	return strings.Join(parts, "\n")
}

// HasErrors reports whether any diagnostic is an error.
func (ds Diags) HasErrors() bool {
	for _, d := range ds {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Errors returns the error diagnostics.
func (ds Diags) Errors() Diags { return ds.filter(Error) }

// Warnings returns the warning diagnostics.
func (ds Diags) Warnings() Diags { return ds.filter(Warning) }

func (ds Diags) filter(sev Severity) Diags {
	var out Diags
	for _, d := range ds {
		if d.Severity == sev {
			out = append(out, d)
		}
	}
	return out
}

func (ds Diags) sorted() Diags {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
	return ds
}

// Catalog resolves already-defined calendars during analysis. The CALENDARS
// catalog (caldb.Manager) implements it; tests use plan.MapCatalog or the
// local MapCatalog.
type Catalog interface {
	// DerivationOf returns the parsed derivation script of a derived
	// calendar.
	DerivationOf(name string) (*callang.Script, bool)
	// ElemKindOf returns the element kind of a named calendar (basic
	// granularity names resolve to themselves).
	ElemKindOf(name string) (chronology.Granularity, bool)
}

// volatilityCatalog is the optional fast path for CV008: catalogs that
// already memoize per-name volatility (caldb.Manager) expose it here.
type volatilityCatalog interface {
	VolatileOf(name string) bool
}

// MapCatalog is an in-memory Catalog for tests and the calvet CLI.
type MapCatalog struct {
	Scripts map[string]*callang.Script
	Kinds   map[string]chronology.Granularity
}

// DerivationOf implements Catalog.
func (m *MapCatalog) DerivationOf(name string) (*callang.Script, bool) {
	s, ok := m.Scripts[name]
	return s, ok
}

// ElemKindOf implements Catalog. Basic calendar names always resolve.
func (m *MapCatalog) ElemKindOf(name string) (chronology.Granularity, bool) {
	if g, err := chronology.ParseGranularity(name); err == nil {
		return g, true
	}
	g, ok := m.Kinds[name]
	return g, ok
}

// Options tune an analysis run.
type Options struct {
	// SelfName is the calendar name the script is being defined under, when
	// vetting a definition: references back to it (directly or through the
	// catalog) are reported as CV002 cycles instead of CV001 undefined
	// references.
	SelfName string
	// Chron anchors the symbolic pattern calculus (CV010–CV013); nil uses
	// the paper's default epoch.
	Chron *chronology.Chronology
}

// builtins are the callable functions of the language (§3.2-§3.3).
var builtins = map[string]bool{
	"generate":   true,
	"caloperate": true,
	"interval":   true,
	"points":     true,
}

// AnalyzeScript runs every pass over a calendar script and returns the
// diagnostics sorted by position.
func AnalyzeScript(s *callang.Script, cat Catalog, opts Options) Diags {
	v := &vetter{cat: cat, opts: opts, used: map[string]bool{}}
	v.temps = callang.AssignedNames(s.Stmts)
	v.vetStmts(s.Stmts)
	v.checkUnused(s.Stmts)
	v.checkCycles(s)
	v.checkVolatile(s)
	v.checkSymbolic(s)
	return v.diags.sorted()
}

// ParseAndAnalyze parses src as a derivation (script or bare expression) and
// vets it; parse and lex failures are converted into a single Error diag so
// callers have one diagnostics pipeline.
func ParseAndAnalyze(src string, cat Catalog, opts Options) Diags {
	script, err := callang.ParseDerivation(src)
	if err != nil {
		return Diags{{Severity: Error, Code: "PARSE", Msg: err.Error()}}
	}
	return AnalyzeScript(script, cat, opts)
}

// vetter carries one analysis run.
type vetter struct {
	cat   Catalog
	opts  Options
	diags Diags
	// temps are the names assigned anywhere in the script. CV001 treats all
	// of them as defined, which never false-positives on use-before-assignment
	// orderings the interpreter accepts.
	temps map[string]bool
	used  map[string]bool // names referenced in any expression
}

func (v *vetter) report(pos callang.Pos, sev Severity, code, format string, args ...any) {
	v.diags = append(v.diags, Diag{Pos: pos, Severity: sev, Code: code, Msg: fmt.Sprintf(format, args...)})
}

// --- statement pass (CV006, CV007, expression checks) -------------------

func (v *vetter) vetStmts(ss []callang.Stmt) {
	for i, st := range ss {
		switch n := st.(type) {
		case *callang.AssignStmt:
			v.vetExpr(n.X)
		case *callang.ReturnStmt:
			v.vetExpr(n.X)
			if i < len(ss)-1 {
				v.report(callang.StmtPos(ss[i+1]), Warning, CodeDeadCode,
					"unreachable statements after return")
			}
		case *callang.ExprStmt:
			v.vetExpr(n.X)
		case *callang.IfStmt:
			v.vetExpr(n.Cond)
			v.vetStmts(n.Then)
			v.vetStmts(n.Else)
		case *callang.WhileStmt:
			v.vetExpr(n.Cond)
			v.vetStmts(n.Body)
			v.checkWhile(n)
		}
	}
}

// checkWhile is the CV007 non-termination heuristic: a loop whose condition
// is not clock-driven and whose body cannot change the condition's value
// never makes progress.
func (v *vetter) checkWhile(n *callang.WhileStmt) {
	if _, clock := callang.ClockRead(callang.ExprScript(n.Cond), func(name string) bool {
		return !v.temps[name] && v.nameVolatile(name)
	}); clock {
		// The paper's wait loops: the condition reads `today` (directly or
		// through a volatile derivation), so the clock drives progress.
		return
	}
	condVars := map[string]bool{}
	callang.Walk(n.Cond, func(e callang.Expr) {
		if id, ok := e.(*callang.Ident); ok && v.temps[id.Name] {
			condVars[id.Name] = true
		}
	})
	if len(n.Body) == 0 {
		v.report(n.Pos, Warning, CodeLoopNoProgress,
			"while-loop with an empty body and a non-volatile condition never terminates")
		return
	}
	if len(condVars) == 0 {
		v.report(n.Pos, Warning, CodeLoopNoProgress,
			"while-loop condition never changes (no temporaries, no clock reads)")
		return
	}
	for name := range callang.AssignedNames(n.Body) {
		if condVars[name] {
			return
		}
	}
	v.report(n.Pos, Warning, CodeLoopNoProgress,
		"while-loop body never assigns a temporary referenced by its condition")
}

// checkUnused reports CV006 for top-level and nested assignments whose name
// is never read by any expression of the script.
func (v *vetter) checkUnused(ss []callang.Stmt) {
	callang.WalkStmts(ss, func(st callang.Stmt, _ callang.Expr) {
		if n, ok := st.(*callang.AssignStmt); ok && !v.used[n.Name] {
			v.report(n.Pos, Warning, CodeDeadCode,
				"calendar %q is assigned but never used", n.Name)
		}
	})
}

// --- expression pass (CV001, CV003, CV004, CV005, CV009) ----------------

func (v *vetter) vetExpr(e callang.Expr) {
	switch n := e.(type) {
	case *callang.Ident:
		v.used[n.Name] = true
		v.checkRef(n)
	case *callang.Number, *callang.StringLit:
	case *callang.ForeachExpr:
		v.checkForeach(n)
		v.vetExpr(n.X)
		v.vetExpr(n.Y)
	case *callang.IntersectExpr:
		v.checkBinaryKinds(n.Pos, "intersects", n.X, n.Y)
		v.vetExpr(n.X)
		v.vetExpr(n.Y)
	case *callang.SelectExpr:
		v.checkSelection(n)
		v.vetExpr(n.X)
	case *callang.LabelSelExpr:
		v.checkLabel(n)
		v.vetExpr(n.X)
	case *callang.BinExpr:
		v.checkBinaryKinds(n.Pos, string(n.Op), n.X, n.Y)
		v.vetExpr(n.X)
		v.vetExpr(n.Y)
	case *callang.CallExpr:
		v.checkCall(n)
	}
}

// checkRef is CV001: every identifier must resolve to a temporary, `today`,
// a basic calendar, a catalog calendar, or the name being defined (whose
// cycles CV002 reports separately).
func (v *vetter) checkRef(n *callang.Ident) {
	if callang.IsToday(n.Name) || v.temps[n.Name] {
		return
	}
	if _, ok := v.cat.ElemKindOf(n.Name); ok {
		return
	}
	if v.opts.SelfName != "" && strings.EqualFold(n.Name, v.opts.SelfName) {
		return
	}
	v.report(n.Pos, Error, CodeUndefinedRef, "undefined calendar reference %q", n.Name)
}

// checkBinaryKinds is CV003 for union, difference and intersects: both
// operands should collect elements of the same kind.
func (v *vetter) checkBinaryKinds(pos callang.Pos, op string, x, y callang.Expr) {
	gx, okx := callang.ElemKind(x, v.cat)
	gy, oky := callang.ElemKind(y, v.cat)
	if okx && oky && gx != gy {
		v.report(pos, Warning, CodeGranMismatch,
			"granularity mismatch across %q: %v vs %v", op, gx, gy)
	}
}

// checkForeach covers the foreach-specific parts of CV003 (a during-foreach
// whose left side is coarser than its right side is always empty) and CV009
// (the §3.4 `<`/`<=` factorization exception).
func (v *vetter) checkForeach(n *callang.ForeachExpr) {
	gx, okx := callang.ElemKind(n.X, v.cat)
	gy, oky := callang.ElemKind(n.Y, v.cat)
	if okx && oky && n.Op == interval.During && gx.Coarser(gy) {
		v.report(n.Pos, Warning, CodeGranMismatch,
			"foreach %v is always empty: %v elements cannot lie during %v elements", n.Op, gx, gy)
	}
	if callang.BlockedByBeforeException(n, v.cat) {
		v.report(n.Pos, Warning, CodeFactorBlocked,
			"nested foreach is not factorized: the §3.4 exception blocks the rewrite when both operators are `<`/`<=` (other than ≤/≤); the inner calendar keeps a wide generation window")
	}
}

// checkSelection covers CV004 (zero indices) and CV005 (statically empty or
// out-of-range selection lists) for [pred]/X.
func (v *vetter) checkSelection(n *callang.SelectExpr) {
	if len(n.Pred.Items) == 0 {
		v.report(n.Pos, Error, CodeBadSelection, "empty selection predicate")
		return
	}
	maxN, boundKnown := v.maxSelectable(n.X)
	// The symbolic calculus upgrades the heuristic bound to the exact
	// cardinality range when the subject's operands lower to patterns:
	// out-of-range positions then become provable (CV012 instead of CV005).
	exMin, exMax, exact := v.exactCards(n.X)
	if exact {
		maxN, boundKnown = exMax, true
	}
	outOfRange := func(pos callang.Pos, what string, hi int) {
		if exact {
			v.report(pos, Warning, CodeSelectCard,
				"%s provably never selects: groups of the subject hold between %d and %d elements on every window", what, exMin, exMax)
			return
		}
		v.report(pos, Warning, CodeBadSelection,
			"%s is out of range: the subject holds at most %d elements per group", what, hi)
	}
	for _, it := range n.Pred.Items {
		switch {
		case it.Last:
		case it.Range:
			if it.From == 0 || it.To == 0 {
				v.report(n.Pos, Error, CodeZeroIndex,
					"zero selection index in range %d-%d (positions are 1-based; the no-zero convention has no tick 0)", it.From, it.To)
				continue
			}
			if sameSign(it.From, it.To) && it.From > it.To {
				v.report(n.Pos, Warning, CodeBadSelection,
					"selection range %d-%d is statically empty", it.From, it.To)
			}
			if boundKnown && sameSign(it.From, it.To) && abs(it.From) > maxN && abs(it.To) > maxN {
				outOfRange(n.Pos, fmt.Sprintf("selection range %d-%d", it.From, it.To), maxN)
			}
		default:
			if it.Pos == 0 {
				v.report(n.Pos, Error, CodeZeroIndex,
					"zero selection index (positions are 1-based; the no-zero convention has no tick 0)")
				continue
			}
			if boundKnown && abs(it.Pos) > maxN {
				outOfRange(n.Pos, fmt.Sprintf("selection index %d", it.Pos), maxN)
			}
		}
	}
}

// checkLabel is CV004 for label selection: for sub-month basic calendars the
// label is a raw tick, and tick 0 does not exist.
func (v *vetter) checkLabel(n *callang.LabelSelExpr) {
	if n.Num != 0 {
		return
	}
	if g, ok := callang.ElemKind(n.X, v.cat); ok && g.Finer(chronology.Month) {
		v.report(n.Pos, Error, CodeZeroIndex,
			"label selection 0/%v addresses tick 0, which the no-zero convention excludes", g)
	}
}

// checkCall covers CV001 for unknown functions and CV004 for literal zero
// ticks handed to interval() / points().
func (v *vetter) checkCall(n *callang.CallExpr) {
	if !builtins[n.Name] {
		v.report(n.Pos, Error, CodeUndefinedRef, "unknown function %q", n.Name)
	}
	args := n.Args
	if n.Name == "interval" || n.Name == "points" {
		// A trailing identifier declares the tick unit, not a tick.
		if len(args) > 0 {
			if _, isIdent := args[len(args)-1].(*callang.Ident); isIdent {
				args = args[:len(args)-1]
			}
		}
		for _, a := range args {
			if num, ok := a.(*callang.Number); ok && num.Val == 0 {
				v.report(num.Pos, Error, CodeZeroIndex,
					"tick 0 in %s() violates the no-zero convention (the tick before 1 is -1)", n.Name)
			}
		}
	}
	for _, a := range n.Args {
		v.vetExpr(a)
	}
}

// maxSelectable bounds how many elements each group of a selection subject
// can hold, when the subject is a foreach grouping of basic-kind calendars:
// [8]/(DAYS:during:WEEKS) can never select anything, a week holding at most
// 7 days.
func (v *vetter) maxSelectable(x callang.Expr) (int, bool) {
	fe, ok := x.(*callang.ForeachExpr)
	if !ok {
		return 0, false
	}
	switch fe.Op {
	case interval.During, interval.Overlaps, interval.Meets:
	default:
		// `<` and `<=` collect elements across the whole window; no static
		// per-group bound exists.
		return 0, false
	}
	gx, okx := callang.ElemKind(fe.X, v.cat)
	gy, oky := callang.ElemKind(fe.Y, v.cat)
	if !okx || !oky || !gx.Finer(gy) {
		return 0, false
	}
	n := maxUnitsPer(gx, gy)
	if n == 0 {
		return 0, false
	}
	if fe.Op != interval.During {
		// overlaps / meets may pick up one straddling unit on each side.
		n += 2
	}
	return n, true
}

// minSeconds is the shortest span of one unit of g, in seconds.
func minSeconds(g chronology.Granularity) int64 {
	switch g {
	case chronology.Month:
		return 28 * 86400
	case chronology.Year:
		return 365 * 86400
	case chronology.Decade:
		return 3652 * 86400
	case chronology.Century:
		return 36524 * 86400
	}
	return chronology.MaxUnitSeconds(g)
}

// maxUnitsPer bounds how many units of fine can lie during one unit of
// coarse (generous: longest coarse unit, shortest fine unit).
func maxUnitsPer(fine, coarse chronology.Granularity) int {
	fs, cs := minSeconds(fine), chronology.MaxUnitSeconds(coarse)
	if fs == 0 || cs == 0 {
		return 0
	}
	return int(cs / fs)
}

func sameSign(a, b int) bool { return (a > 0) == (b > 0) }

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
