package caldb

import (
	"sync"

	"calsys/internal/chronology"
	"calsys/internal/core/callang"
	calvet "calsys/internal/core/callang/vet"
	"calsys/internal/core/plan"
)

// preparedCap bounds one generation's prepared-expression table. A
// deployment queries a handful of stored rules per account, so the working
// set is tens of sources; a full table is replaced by an empty one (the same
// move as a generation change), so one-off sources cannot pin memory.
const preparedCap = 512

// Prepared is everything the manager derives from one source text at one
// catalog generation — the paper's "parse and optimise once, keep the result
// in the catalog" (§3.4, CALENDARS.eval-plan) for expressions that are not
// stored calendars. The parse happens when the value is built; the calvet
// verdict, the lowered expression and the scheduler are each computed on
// first use and then shared by every reader. The manager's table serves a
// Prepared only while the catalog is at Gen.
type Prepared struct {
	Name string // the name the source is vetted under; "" for anonymous expressions
	Gen  uint64

	// Script is the source parsed as a derivation (script or bare
	// expression), nil when it does not parse. Expr is the source parsed as
	// one expression; a script such as "x = DAYS; return (x);" has a Script
	// and an ExprErr.
	Script  *callang.Script
	Expr    callang.Expr
	ExprErr error

	m         *Manager
	scriptErr error

	vetOnce sync.Once
	diags   calvet.Diags

	lowerOnce sync.Once
	lowered   *Lowered
	lowerErr  error

	schedOnce sync.Once
	sched     *plan.Scheduler
}

// Lowered is the catalog-dependent front half of §3.4 for one expression.
type Lowered struct {
	Expr callang.Expr           // derived calendars inlined, factorised
	Gran chronology.Granularity // smallest unit every calendar is expressible in
	// Canon is the source expression's canonical text and cacheID its
	// whole-expression materialization-cache key.
	Canon, cacheID string
	// PlanKey ("gran|lowered text") names the plan: sources that lower to the
	// same text at the same granularity share one Scheduler.
	PlanKey string
	// Volatile expressions read `today` (directly or through a derived
	// calendar) and are never served from the materialization cache.
	Volatile bool
	// BasicOnly expressions reference basic calendars only: their plan is the
	// same under every catalog.
	BasicOnly bool
}

func newPrepared(m *Manager, gen uint64, name, src string) *Prepared {
	p := &Prepared{Name: name, Gen: gen, m: m}
	// callang.ParseDerivation's two attempts, expression first: a bare
	// expression ends at EOF and a script in ';' or '}', so at most one
	// succeeds and the common case parses once.
	if p.Expr, p.ExprErr = callang.ParseExpr(src); p.ExprErr == nil {
		p.Script = callang.ExprScript(p.Expr)
	} else {
		p.Script, p.scriptErr = callang.ParseScript(src)
	}
	return p
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
	})
	return p.lowered, p.lowerErr
}

// Scheduler returns the next-instant scheduler of the lowered expression,
// shared with every source of this generation that lowers to the same plan.
// It runs under the manager's plain environment (no clock): callers answer
// Volatile expressions from a scheduler of their own.
func (p *Prepared) Scheduler() (*plan.Scheduler, error) {
	l, err := p.Lowered()
	if err != nil {
		return nil, err
	}
	p.schedOnce.Do(func() { p.sched = p.m.internScheduler(p.Gen, l) })
	return p.sched, nil
}

// preparedKey identifies a table entry. The evaluation window is not part of
// it: one entry answers every window.
type preparedKey struct{ name, src string }

// preparedTable is one generation's entries and schedulers.
type preparedTable struct {
	gen     uint64
	entries map[preparedKey]*Prepared
	scheds  map[string]*plan.Scheduler // by Lowered.PlanKey
}

func newPreparedTable(gen uint64) *preparedTable {
	return &preparedTable{gen: gen, entries: map[preparedKey]*Prepared{}, scheds: map[string]*plan.Scheduler{}}
}

// Prepared returns the shared Prepared of src vetted under name ("" for an
// anonymous expression) at the current catalog generation, building and
// publishing it on first use.
//
// Publication is generation-checked: a value built for generation G enters
// only a table of generation G, and a lookup serves an entry only while the
// table's generation equals the catalog's. Mutations change the catalog and
// its generation in one critical section (see bump), so nothing derived from
// the catalog before a mutation is served after it.
func (m *Manager) Prepared(name, src string) *Prepared {
	k := preparedKey{name, src}
	gen := m.gen.Load()
	m.prepMu.RLock()
	t := m.prep
	p := t.entries[k]
	m.prepMu.RUnlock()
	if t.gen == gen && p != nil {
		m.prepHits.Add(1)
		return p
	}
	m.prepMisses.Add(1)
	p = newPrepared(m, gen, name, src)

	m.prepMu.Lock()
	defer m.prepMu.Unlock()
	t = m.prep
	if t.gen == gen && t.entries[k] != nil {
		return t.entries[k] // a concurrent first request published it
	}
	if t.gen < gen || (t.gen == gen && len(t.entries) >= preparedCap) {
		t = newPreparedTable(gen)
		m.prep = t
		m.prepResets.Add(1)
	}
	if t.gen == gen { // else a later generation owns the table: p stays private
		t.entries[k] = p
	}
	return p
}

// internScheduler returns the generation's scheduler for a lowered plan. It
// is built outside the table lock (symbolic lowering can take milliseconds);
// the first one published wins.
func (m *Manager) internScheduler(gen uint64, l *Lowered) *plan.Scheduler {
	m.prepMu.RLock()
	t := m.prep
	s := t.scheds[l.PlanKey]
	m.prepMu.RUnlock()
	if t.gen == gen && s != nil {
		return s
	}
	s = plan.NewScheduler(m.Env(), l.Expr, l.Gran)
	m.prepMu.Lock()
	defer m.prepMu.Unlock()
	if t = m.prep; t.gen != gen {
		return s
	}
	if prev := t.scheds[l.PlanKey]; prev != nil {
		return prev
	}
	t.scheds[l.PlanKey] = s
	return s
}

// Schedulers lists the distinct schedulers live at the current catalog
// generation (the rule engine's plan groups).
func (m *Manager) Schedulers() []*plan.Scheduler {
	m.prepMu.RLock()
	defer m.prepMu.RUnlock()
	if m.prep.gen != m.gen.Load() {
		return nil
	}
	out := make([]*plan.Scheduler, 0, len(m.prep.scheds))
	for _, s := range m.prep.scheds {
		out = append(out, s)
	}
	return out
}

// PreparedStats is a snapshot of the prepared-expression table.
type PreparedStats struct {
	Entries int   `json:"entries"` // entries in the current table
	Hits    int64 `json:"hits"`    // lookups answered by the table
	Misses  int64 `json:"misses"`  // lookups that parsed the source
	Resets  int64 `json:"resets"`  // tables replaced (generation moved, or full)
}

// PreparedStats snapshots the table's size and cumulative counters.
func (m *Manager) PreparedStats() PreparedStats {
	m.prepMu.RLock()
	n := len(m.prep.entries)
	m.prepMu.RUnlock()
	return PreparedStats{Entries: n, Hits: m.prepHits.Load(), Misses: m.prepMisses.Load(), Resets: m.prepResets.Load()}
}
