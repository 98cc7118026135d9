package caldb

import (
	"strings"
	"sync"
	"sync/atomic"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/callang/symbolic"
	calvet "calsys/internal/core/callang/vet"
	"calsys/internal/core/periodic"
	"calsys/internal/core/plan"
)

// preparedCap bounds the prepared-expression table.
// A deployment queries a handful of stored rules per account, so the working
// set is tens of sources; a full table is emptied, so one-off sources cannot
// pin memory.
const preparedCap = 512

// Prepared is everything the manager derives from one source text — the
// paper's "parse and optimise once, keep the result in the catalog" (§3.4,
// CALENDARS.eval-plan) for expressions that are not stored calendars. The
// parse happens when the value is built; the calvet verdict, the lowered
// expression and its pattern are each computed on first use and then shared
// by every reader; the pattern, or else an evaluation of the query's horizon
// window, answers next-instant queries (NextAfter).
//
// The manager's table serves an anonymous entry while the shape stamp of
// its dependencies (depsLocked, stampsLocked) is the one it was built at, so
// neither a write to a name the source does not read nor a replace keeping
// the granularity stales it. A named entry is vetted against every catalog
// definition (CV011), so it is served only at the generation it was built at.
type Prepared struct {
	Name string // the name the source is vetted under; "" for anonymous expressions

	// Script is the source parsed as a derivation (script or bare
	// expression), nil when it does not parse. Expr is the source parsed as
	// one expression; a script such as "x = DAYS; return (x);" has a Script
	// and an ExprErr.
	Script  *callang.Script
	Expr    callang.Expr
	ExprErr error

	m         *Manager
	scriptErr error
	// deps are the catalog names the source reads and shape their shape
	// stamp when the entry was built; for a named entry, shape is the
	// catalog generation.
	deps  []string
	shape uint64

	vetOnce sync.Once
	diags   calvet.Diags

	lowerOnce sync.Once
	lowered   *Lowered
	lowerErr  error

	patOnce sync.Once
	pat     *periodic.Patched
	patOK   bool
	// stored marks a pattern that reads stored values: a write keeping their
	// shape does not stale the entry, so the pattern is re-keyed by the
	// values stamp on each call (slot).
	stored bool
	slot   atomic.Pointer[patSlot]
}

// patSlot is a stored-reading pattern and the values stamp it was read at.
type patSlot struct {
	values uint64
	pat    *periodic.Patched
	ok     bool
}

// Lowered is the catalog-dependent front half of §3.4 for one expression.
type Lowered struct {
	Expr callang.Expr           // derived calendars inlined, factorised
	Gran chronology.Granularity // smallest unit every calendar is expressible in
	// Canon is the source expression's canonical text and cacheID its
	// whole-expression materialization-cache key.
	Canon, cacheID string
	// PlanKey ("gran|lowered text") names the plan: sources that lower to the
	// same text at the same granularity evaluate alike.
	PlanKey string
	// Volatile expressions read `today` (directly or through a derived
	// calendar) and are never served from the materialization cache.
	Volatile bool
	// BasicOnly expressions reference basic calendars only: their plan is the
	// same under every catalog.
	BasicOnly bool
	// deps are the catalog names the lowered expression reads: what its
	// pattern and its window evaluations read.
	deps []string
}

// newPrepared parses src and records its dependencies and shape stamp; the
// stamps of an unnamed source, returned, are read with it, never after.
func newPrepared(m *Manager, name, src string) (p *Prepared, st stamps) {
	p = &Prepared{Name: name, m: m}
	// callang.ParseDerivation's two attempts, expression first: a bare
	// expression ends at EOF and a script in ';' or '}', so at most one
	// succeeds and the common case parses once.
	if p.Expr, p.ExprErr = callang.ParseExpr(src); p.ExprErr == nil {
		p.Script = callang.ExprScript(p.Expr)
	} else {
		p.Script, p.scriptErr = callang.ParseScript(src)
	}
	switch {
	case name != "":
		p.shape = m.gen.Load()
	case p.Script != nil:
		m.mu.RLock()
		p.deps = m.depsLocked(refsOf(p.Script.Stmts))
		st = m.stampsLocked(p.deps)
		m.mu.RUnlock()
		p.shape = st.shape
	}
	return p, st
}

// Diags returns the calvet verdict on the source as a definition of Name:
// every check of calvet.ParseAndAnalyze, run once. The slice is shared and
// must not be modified.
func (p *Prepared) Diags() calvet.Diags {
	p.vetOnce.Do(func() {
		if p.Script == nil {
			p.diags = calvet.Diags{{Severity: calvet.Error, Code: "PARSE", Msg: p.scriptErr.Error()}}
			return
		}
		ds := calvet.AnalyzeScript(p.Script, p.m, calvet.Options{SelfName: p.Name, Chron: p.m.chron})
		p.diags = ds[:len(ds):len(ds)]
	})
	return p.diags
}

// Lowered returns the inlined and factorised expression with its keys and
// flags, or the error that stops the source from being evaluated as one.
func (p *Prepared) Lowered() (*Lowered, error) {
	p.lowerOnce.Do(func() {
		if p.lowerErr = p.ExprErr; p.lowerErr != nil {
			return
		}
		expr, gran, err := plan.Prepare(p.m.Env(), p.Expr, nil)
		if err != nil {
			p.lowerErr = err
			return
		}
		canon := p.Expr.String()
		p.lowered = &Lowered{
			Expr: expr, Gran: gran, Canon: canon, cacheID: "E|" + canon,
			PlanKey:   gran.String() + "|" + expr.String(),
			Volatile:  p.m.exprVolatile(p.Expr),
			BasicOnly: callang.BasicOnly(p.Expr),
		}
		refs := refsOf(callang.ExprScript(expr).Stmts)
		p.m.mu.RLock()
		p.lowered.deps = p.m.depsLocked(refs)
		p.m.mu.RUnlock()
	})
	return p.lowered, p.lowerErr
}

// Pattern returns the symbolic memo's pattern of the lowered expression: its
// whole element list, which answers any window with no plan (nil: empty). ok
// is false unless the lowered expression is plan.WindowExact and lowers: a
// basic-only one to its memo pattern, once; one reading stored calendars of
// points to a base shared by every tenant plus the points those values
// remove and add (symbolic.EvalPatched), again whenever they are written.
func (p *Prepared) Pattern() (*periodic.Patched, bool) {
	p.patOnce.Do(func() {
		l, err := p.Lowered()
		switch {
		case err != nil || l.Volatile || !plan.WindowExact(l.Expr):
		case !callang.BasicOnly(l.Expr):
			p.stored = true
		default:
			pat, ok := symbolic.Eval(p.m.chron, nil, l.Expr, l.Gran)
			if p.patOK = ok; pat != nil {
				p.pat = &periodic.Patched{Base: pat}
			}
		}
	})
	if !p.stored {
		return p.pat, p.patOK
	}
	l := p.lowered
	if s := p.slot.Load(); s != nil && s.values == p.m.stamps(l.deps).values {
		return s.pat, s.ok
	}
	st, stored := p.m.storedValues(l.deps)
	s := &patSlot{values: st.values}
	s.pat, s.ok = symbolic.EvalPatched(p.m.chron, stored, l.Expr, l.Gran, st.key)
	p.slot.Store(s)
	return s.pat, s.ok
}

// NextAfter returns the first instant (epoch seconds) strictly after `after`
// at which the expression fires, searching horizonDays ahead (≤ 0:
// plan.DefaultHorizonDays); ok is false when nothing starts within the
// horizon. The gate is Pattern's: an expression it answers is answered by
// arithmetic on the pattern, clipped at plan.HorizonWindow (a nil pattern is
// dormant), and any other by evaluating that window (plan.NextInstant, one
// probe, counted in WindowEvals). Both read the manager's plain environment
// (no clock): callers answer Volatile expressions from a scheduler of their
// own.
func (p *Prepared) NextAfter(after, horizonDays int64) (int64, bool, error) {
	l, err := p.Lowered()
	if err != nil {
		return 0, false, err
	}
	pat, ok := p.Pattern()
	if !ok {
		p.m.windowEvals.Add(1)
		return plan.NextInstant(p.m.Env(), l.Expr, l.Gran, after, horizonDays)
	}
	if pat == nil {
		return 0, false, nil
	}
	ch := p.m.chron
	hwin, err := plan.HorizonWindow(ch, l.Gran, after, horizonDays)
	if err != nil {
		return 0, false, err
	}
	if t, ok := pat.NextAfter(ch.TickAt(l.Gran, after)); ok && t <= hwin.Hi {
		return ch.UnitStart(l.Gran, t), true, nil
	}
	return 0, false, nil
}

// Values returns the values stamp of the names an anonymous entry's source
// reads, directly or through a derived calendar (a named entry lists none):
// it moves exactly when one of them is written. An answer derived from the
// entry after reading it is as current as the stamp; a later stamp that
// differs means it may be stale.
func (p *Prepared) Values() uint64 { return p.m.stamps(p.deps).values }

// storedValues returns the stamps of deps and, read with them, the values of
// the stored calendars among them that no lifespan bounds: what a patched
// lowering may read, named by st.key.
func (m *Manager) storedValues(deps []string) (st stamps, stored symbolic.Stored) {
	type value struct {
		name string
		cal  *calendar.Calendar
	}
	var vals []value
	m.mu.RLock()
	st = m.stampsLocked(deps)
	for _, name := range deps {
		if e := m.cache[name]; e != nil && e.Values != nil && e.Lifespan.Lo == 1 && e.Lifespan.Unbounded() {
			vals = append(vals, value{name, e.Values})
		}
	}
	m.mu.RUnlock()
	return st, func(name string) (*calendar.Calendar, bool) {
		for _, v := range vals {
			if strings.EqualFold(v.name, name) {
				return v.cal, true
			}
		}
		return nil, false
	}
}

// preparedKey identifies a table entry. The evaluation window is not part of
// it: one entry answers every window.
type preparedKey struct{ name, src string }

// Prepared returns the shared Prepared of src vetted under name ("" for an
// anonymous expression), building and publishing it on first use and again
// once a name it reads has changed shape.
func (m *Manager) Prepared(name, src string) *Prepared {
	p, _ := m.prepared(name, src)
	return p
}

// prepared is Prepared with the stamps of the entry's dependencies, read in
// the same critical section as the shape stamp that admitted it. A write
// moves the stamps of exactly the entries listing the written name, so
// nothing derived from the catalog is served past a write it depends on.
func (m *Manager) prepared(name, src string) (*Prepared, stamps) {
	k := preparedKey{name, src}
	m.prepMu.RLock()
	p := m.prep[k]
	m.prepMu.RUnlock()
	if p != nil {
		st := m.stamps(p.deps) // a named entry has none: its shape is the generation
		if p.Name != "" {
			st.shape = m.gen.Load()
		}
		if st.shape == p.shape {
			m.prepHits.Add(1)
			return p, st
		}
		m.prepStale.Add(1)
	}
	m.prepMisses.Add(1)
	p, st := newPrepared(m, name, src)

	m.prepMu.Lock()
	defer m.prepMu.Unlock()
	q := m.prep[k]
	switch {
	case q != nil && q.shape == p.shape:
		// A concurrent first request published it. Equal shape stamps mean
		// equal dependency lists: a list changes only through a write to a
		// name on it, which moves its stamp.
		return q, st
	case q != nil && q.shape > p.shape:
		return p, st // a later catalog state owns the slot: p stays private
	case q == nil && len(m.prep) >= preparedCap:
		m.prep = map[preparedKey]*Prepared{}
		m.prepResets.Add(1)
	}
	m.prep[k] = p
	return p, st
}

// PreparedStats is a snapshot of the prepared-expression table.
type PreparedStats struct {
	Entries        int   `json:"entries"`         // entries in the table
	Hits           int64 `json:"hits"`            // lookups answered by the table
	Misses         int64 `json:"misses"`          // lookups that parsed the source
	Stale          int64 `json:"stale"`           // misses that found an entry whose stamp had moved and rebuilt it
	Resets         int64 `json:"resets"`          // tables emptied because they were full
	PatternExpands int64 `json:"pattern_expands"` // expansions a Pattern answered
}

// CountPatternExpand counts one expansion a Pattern answered.
func (m *Manager) CountPatternExpand() { m.patternExpands.Add(1) }

// WindowEvals reports how many next-instant queries Prepared.NextAfter has
// answered by evaluating the horizon window: the ones no pattern answers.
func (m *Manager) WindowEvals() int64 { return m.windowEvals.Load() }

// PreparedStats snapshots the table's size and cumulative counters.
func (m *Manager) PreparedStats() PreparedStats {
	m.prepMu.RLock()
	n := len(m.prep)
	m.prepMu.RUnlock()
	return PreparedStats{Entries: n, Hits: m.prepHits.Load(), Misses: m.prepMisses.Load(),
		Stale: m.prepStale.Load(), Resets: m.prepResets.Load(), PatternExpands: m.patternExpands.Load()}
}
