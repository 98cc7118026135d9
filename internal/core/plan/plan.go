// Package plan implements evaluation plans for calendar expressions (§3.4 of
// the paper): a compiler from factorized ASTs to a procedural IR with
// generation windows inferred by selection look-ahead, an executor that
// generates each distinct calendar once, and an interpreter for the calendar
// scripts that are not one expression (if, while, alert returns; script.go).
package plan

import (
	"fmt"
	"strings"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/interval"
	"calsys/internal/core/matcache"
	"calsys/internal/core/periodic"
)

// Catalog resolves calendar names for compilation and execution. The
// database's CALENDARS table implements this; tests use MapCatalog.
type Catalog interface {
	// DerivationOf returns the parsed derivation script of a derived
	// calendar.
	DerivationOf(name string) (*callang.Script, bool)
	// ElemKindOf returns the element kind of a named calendar (basic names
	// resolve to themselves).
	ElemKindOf(name string) (chronology.Granularity, bool)
	// StoredCalendar returns the explicitly stored values of a calendar
	// such as HOLIDAYS.
	StoredCalendar(name string) (*calendar.Calendar, bool)
}

// MapCatalog is an in-memory Catalog.
type MapCatalog struct {
	Scripts map[string]*callang.Script
	Kinds   map[string]chronology.Granularity
	Stored  map[string]*calendar.Calendar
}

// NewMapCatalog returns an empty in-memory catalog.
func NewMapCatalog() *MapCatalog {
	return &MapCatalog{
		Scripts: map[string]*callang.Script{},
		Kinds:   map[string]chronology.Granularity{},
		Stored:  map[string]*calendar.Calendar{},
	}
}

// DerivationOf implements Catalog.
func (m *MapCatalog) DerivationOf(name string) (*callang.Script, bool) {
	s, ok := m.Scripts[name]
	return s, ok
}

// ElemKindOf implements Catalog.
func (m *MapCatalog) ElemKindOf(name string) (chronology.Granularity, bool) {
	if g, ok := chronology.LookupGranularity(name); ok {
		return g, true
	}
	g, ok := m.Kinds[name]
	return g, ok
}

// StoredCalendar implements Catalog.
func (m *MapCatalog) StoredCalendar(name string) (*calendar.Calendar, bool) {
	c, ok := m.Stored[name]
	return c, ok
}

// VersionedCatalog is an optional Catalog extension stamping what a named
// calendar's value depends on, the calendar and everything its derivation
// reads. key is a content key: equal keys mean equal content, so equal
// values. gen is a witness: it moves whenever any of that content is written
// and never returns to an earlier value. The executor versions shared
// materializations of derived calendars by key, and files one only if gen,
// re-read after the evaluation, is the gen read with the key.
type VersionedCatalog interface {
	ValuesStamp(name string) (key, gen uint64)
}

// VolatilityCatalog is an optional Catalog extension reporting whether a
// named calendar's value can change between evaluations of the same catalog
// generation (its derivation — directly or transitively — reads `today` or
// waits on the clock). Volatile calendars are never served from the shared
// materialization cache.
type VolatilityCatalog interface {
	VolatileOf(name string) bool
}

// Unused is the ignored parameter of Prepare, Compile and (*Plan).Exec (pass
// nil); it goes with the next change to bench/, which passes nil to all three.
type Unused = map[string]bool

// Env carries everything evaluation needs: the chronology, the catalog, and
// the bindings to real time used by `today` and waiting while-loops.
type Env struct {
	Chron *chronology.Chronology
	Cat   Catalog
	// Mat is the shared cross-evaluation materialization cache; nil keeps
	// evaluation self-contained (per-run sharing only).
	Mat *matcache.Cache
	// MatScope namespaces this environment's entries in the shared cache
	// (one scope per catalog manager).
	MatScope string
	// Now returns the current instant in epoch seconds; nil makes `today`
	// unavailable.
	Now func() int64
	// Wait advances time during an empty-bodied while loop whose condition
	// is still true (the paper's "do nothing" wait). nil makes such loops
	// fail instead of spinning.
	Wait func() error
	// MaxWhileIters bounds while-loop iterations (default 100000).
	MaxWhileIters int
	// DisableWindowInference turns off the selection look-ahead of §3.4 and
	// generates every calendar over the full base window; used by the
	// benchmarks that measure the optimization's effect.
	DisableWindowInference bool
	// DisableFactorization turns off the §3.4 factorization rewrite; used
	// by the Figure 2/3 benchmarks comparing initial vs factorized plans.
	DisableFactorization bool
	// DisableSharing turns off common-subexpression sharing (the paper's
	// "mark any calendar that is encountered more than once to avoid
	// generating values of the calendar unnecessarily") and evaluation from
	// patterns, so the executor materializes every register: its eager
	// oracle, and the ablation benchmarks' arm.
	DisableSharing bool
}

func (e *Env) maxWhile() int {
	if e.MaxWhileIters > 0 {
		return e.MaxWhileIters
	}
	return 100000
}

// Reg identifies a plan temporary (the %t_i of the procedural statements).
type Reg int

// OpKind enumerates plan operations.
type OpKind int

// Plan operations.
const (
	OpGenerate     OpKind = iota // generate basic calendar over a window (untruncated)
	OpGenerateCall               // surface generate() call (truncating, §3.2 semantics)
	OpUnit                       // one labeled unit (1993/YEARS)
	OpLoad                       // load a stored calendar's values
	OpDerived                    // evaluate an opaque derived calendar's script
	OpToday                      // the current tick as a point calendar
	OpConst                      // a literal calendar (interval()/points())
	OpForeach                    // strict or relaxed foreach with a listop
	OpIntersect                  // point-set intersection
	OpUnion                      // +
	OpDiff                       // -
	OpSelect                     // selection [pred]/
	OpCaloperate                 // caloperate grouping
)

// Op is one procedural statement of an evaluation plan.
type Op struct {
	Kind   OpKind
	Dst    Reg
	Of     chronology.Granularity // Generate, GenerateCall, Unit
	In     chronology.Granularity // GenerateCall
	Win    interval.Interval      // Generate, GenerateCall, Derived
	Tick   chronology.Tick        // Unit
	Name   string                 // Load, Derived, Var
	A, B   Reg                    // operands
	ListOp interval.ListOp        // Foreach
	Strict bool                   // Foreach
	Sel    calendar.Selection     // Select
	Counts []int                  // Caloperate
	Lit    *calendar.Calendar     // Const
	// Pat is the symbolic memo's pattern of the flattened value of a maximal
	// basic-only sub-tree rooted at a Foreach or Select (nil otherwise, and
	// in a self-contained environment): the window the executor reads that
	// value from (regVal.view).
	Pat *periodic.Pattern
}

// Plan is a compiled evaluation plan: the eval-plan column of the CALENDARS
// catalog (Figure 1).
type Plan struct {
	Gran   chronology.Granularity
	Window interval.Interval
	Ops    []Op
	Result Reg
}

// String renders the plan as procedural statements.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PLAN gran=%v window=%v\n", p.Gran, p.Window)
	for _, op := range p.Ops {
		b.WriteString("  ")
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  RESULT %%t%d", p.Result)
	return b.String()
}

// String renders one plan statement.
func (op Op) String() string {
	switch op.Kind {
	case OpGenerate:
		return fmt.Sprintf("%%t%d = GENERATE %v WINDOW %v", op.Dst, op.Of, op.Win)
	case OpGenerateCall:
		return fmt.Sprintf("%%t%d = GENERATE-CALL %v IN %v WINDOW %v", op.Dst, op.Of, op.In, op.Win)
	case OpUnit:
		return fmt.Sprintf("%%t%d = UNIT %v #%d", op.Dst, op.Of, op.Tick)
	case OpLoad:
		return fmt.Sprintf("%%t%d = LOAD %s", op.Dst, op.Name)
	case OpDerived:
		return fmt.Sprintf("%%t%d = EVAL %s WINDOW %v", op.Dst, op.Name, op.Win)
	case OpToday:
		return fmt.Sprintf("%%t%d = TODAY", op.Dst)
	case OpConst:
		return fmt.Sprintf("%%t%d = CONST %v", op.Dst, op.Lit)
	case OpForeach:
		mode := "STRICT"
		if !op.Strict {
			mode = "RELAXED"
		}
		return fmt.Sprintf("%%t%d = FOREACH %%t%d %s %%t%d %s", op.Dst, op.A, op.ListOp, op.B, mode)
	case OpIntersect:
		return fmt.Sprintf("%%t%d = INTERSECT %%t%d %%t%d", op.Dst, op.A, op.B)
	case OpUnion:
		return fmt.Sprintf("%%t%d = UNION %%t%d %%t%d", op.Dst, op.A, op.B)
	case OpDiff:
		return fmt.Sprintf("%%t%d = DIFF %%t%d %%t%d", op.Dst, op.A, op.B)
	case OpSelect:
		return fmt.Sprintf("%%t%d = SELECT %s %%t%d", op.Dst, op.Sel, op.A)
	case OpCaloperate:
		return fmt.Sprintf("%%t%d = CALOPERATE %%t%d %v", op.Dst, op.A, op.Counts)
	}
	return fmt.Sprintf("%%t%d = ?op%d", op.Dst, int(op.Kind))
}

// GenerateCost sums the window widths (in ticks) of all generation ops: the
// work the §3.4 optimizations are designed to reduce.
func (p *Plan) GenerateCost() int64 {
	var total int64
	for _, op := range p.Ops {
		switch op.Kind {
		case OpGenerate, OpGenerateCall:
			total += op.Win.Length()
		}
	}
	return total
}
