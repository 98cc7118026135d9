package rules

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"calsys/internal/caldb"
	"calsys/internal/core/plan"
	"calsys/internal/faultinject"
	"calsys/internal/store"
)

// Catalog table names (Figure 4), plus the dead-letter table for firings
// that exhausted their retry budget.
const (
	RuleInfoTable   = "RULE_INFO"
	RuleTimeTable   = "RULE_TIME"
	DeadLetterTable = "RULE_DEADLETTER"
)

// Fault-injection sites in the engine.
const (
	// SiteFire is hit inside the firing transaction, before the action
	// executes: a crash here rolls the firing back (crash-before-commit).
	SiteFire = "engine.fire"
	// SiteDefineRuleTime is hit between the RULE-INFO and RULE-TIME appends
	// of a definition, exercising mid-definition atomicity.
	SiteDefineRuleTime = "engine.define.ruletime"
)

// ErrActionTimeout reports an action that exceeded its per-firing deadline.
// The attempt counts as failed for retry purposes; if the straggler commits
// later anyway, the retry detects it via RULE-TIME and does not re-execute.
var ErrActionTimeout = errors.New("action deadline exceeded")

// ErrAlreadyDefined is wrapped by every rule definition whose name is taken.
var ErrAlreadyDefined = errors.New("already defined")

// errAlreadyFired is returned inside the firing transaction when RULE-TIME
// shows the firing already committed (a crashed or timed-out earlier attempt
// that made it through) — the caller treats it as success without
// re-executing, giving exactly-once over a journal replay.
var errAlreadyFired = errors.New("rules: firing already committed")

// Action is what a rule does when it triggers. The Postquel package supplies
// an implementation that runs query-language commands; tests and examples
// use Go callbacks.
type Action interface {
	// Execute runs the action inside the firing transaction. ev is non-nil
	// for event rules; firedAt is the trigger instant (epoch seconds) for
	// temporal rules.
	Execute(tx *store.Txn, ev *store.Event, firedAt int64) error
	// Describe renders the action for the RULE-INFO catalog.
	Describe() string
}

// FuncAction wraps a Go callback as an Action (the paper's "do Proc_X").
type FuncAction struct {
	Name string
	Fn   func(tx *store.Txn, ev *store.Event, firedAt int64) error
}

// Execute implements Action.
func (a FuncAction) Execute(tx *store.Txn, ev *store.Event, firedAt int64) error {
	return a.Fn(tx, ev, firedAt)
}

// Describe implements Action.
func (a FuncAction) Describe() string { return a.Name }

// Condition guards an event rule (the where clause); nil means always.
type Condition func(tx *store.Txn, ev store.Event) (bool, error)

// temporalRule is the in-memory form of one temporal rule.
type temporalRule struct {
	name   string
	src    string
	action Action
	// values is the values stamp of what the expression reads
	// (caldb.Prepared.Values), read before next was computed: it moves when
	// one of those names is written, so a rule whose stamp is still values
	// has an up-to-date trigger. unknownValues marks a trigger computed under
	// a catalog state this engine never saw.
	values uint64
	// next trigger in epoch seconds; noTrigger when dormant.
	next int64
	// rid is the rule's RULE-TIME row id. A firing trusts it while that row
	// carries the rule's name and looks the row up by name otherwise: a rule
	// reattached after a snapshot load starts at 0, another rule's row.
	rid int64
}

// eventRule is the in-memory form of one event rule.
type eventRule struct {
	name   string
	op     store.EventOp
	table  string
	cond   Condition
	action Action
}

// noTrigger marks a dormant temporal rule (no upcoming instant in the
// lookahead horizon).
const noTrigger = int64(1) << 62

// unknownValues is the values stamp of a trigger not computed from the
// current catalog — a rule reattached from RULE-TIME, or a dead-lettered one
// whose recomputation failed: no catalog state has that stamp, so the next
// RecomputeAll recomputes it.
const unknownValues = ^uint64(0)

// Engine owns both rule catalogs and dispatches event rules; DBCron drives
// its temporal rules.
type Engine struct {
	cal *caldb.Manager
	db  *store.DB

	// LookaheadDays bounds how far ahead next-trigger computation searches
	// (default 730 days).
	LookaheadDays int64

	mu       sync.Mutex
	temporal map[string]*temporalRule
	events   map[string]*eventRule
	// orphans are rule names found in RULE-INFO at startup (e.g. after a
	// snapshot restore) whose actions — which are code — have not been
	// re-attached yet. Redefining an orphaned rule replaces its catalog
	// rows instead of failing as a duplicate; ReattachAction re-binds the
	// action while preserving the persisted trigger state.
	orphans map[string]bool
	// onDrop listeners let daemons discard in-memory schedule state for a
	// dropped rule (lower-cased name). Keyed by registration id so a
	// per-shard daemon can unhook itself on handoff (DBCron.Close).
	onDrop     map[int]func(name string)
	nextDropID int
	// faults is the optional fault-injection harness (nil in production).
	faults *faultinject.Injector
}

// SetFaults threads a fault injector through the engine's injection sites
// (tests only; nil disables).
func (e *Engine) SetFaults(in *faultinject.Injector) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.faults = in
}

func (e *Engine) injector() *faultinject.Injector {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.faults
}

// addDropListener registers a callback invoked (outside the engine lock)
// after a rule is dropped, and returns an id for removeDropListener.
func (e *Engine) addDropListener(fn func(name string)) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.onDrop == nil {
		e.onDrop = map[int]func(name string){}
	}
	id := e.nextDropID
	e.nextDropID++
	e.onDrop[id] = fn
	return id
}

// removeDropListener unhooks a listener registered with addDropListener.
func (e *Engine) removeDropListener(id int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.onDrop, id)
}

// NewEngine creates the rule catalogs and registers the event dispatcher.
func NewEngine(cal *caldb.Manager) (*Engine, error) {
	e := &Engine{
		cal:           cal,
		db:            cal.DB(),
		LookaheadDays: 730,
		temporal:      map[string]*temporalRule{},
		events:        map[string]*eventRule{},
		orphans:       map[string]bool{},
	}
	if _, ok := e.db.Table(RuleInfoTable); !ok {
		schema, err := store.NewSchema(
			store.Column{Name: "name", Type: store.TText},
			store.Column{Name: "kind", Type: store.TText}, // temporal | event
			store.Column{Name: "event", Type: store.TText},
			store.Column{Name: "tab", Type: store.TText},
			store.Column{Name: "calendar_expr", Type: store.TText},
			store.Column{Name: "eval_plan", Type: store.TText},
			store.Column{Name: "action", Type: store.TText},
		)
		if err != nil {
			return nil, err
		}
		if err := e.db.CreateTable(RuleInfoTable, schema); err != nil {
			return nil, err
		}
		if err := e.db.CreateIndex(RuleInfoTable, "name"); err != nil {
			return nil, err
		}
	}
	if _, ok := e.db.Table(RuleTimeTable); !ok {
		schema, err := store.NewSchema(
			store.Column{Name: "name", Type: store.TText},
			store.Column{Name: "next_trigger", Type: store.TInt}, // epoch seconds
		)
		if err != nil {
			return nil, err
		}
		if err := e.db.CreateTable(RuleTimeTable, schema); err != nil {
			return nil, err
		}
		if err := e.db.CreateIndex(RuleTimeTable, "next_trigger"); err != nil {
			return nil, err
		}
	}
	// Every firing resolves its RULE-TIME row by name inside the firing
	// transaction; without this index that lookup is a full scan and the
	// daemon degrades to O(rules) per firing at fleet scale. Built outside
	// the create block so databases restored from older snapshots (which
	// carry the table but not the index) are upgraded on open.
	if tab, ok := e.db.Table(RuleTimeTable); ok && !tab.HasIndex("name") {
		if err := e.db.CreateIndex(RuleTimeTable, "name"); err != nil {
			return nil, err
		}
	}
	if _, ok := e.db.Table(DeadLetterTable); !ok {
		schema, err := store.NewSchema(
			store.Column{Name: "name", Type: store.TText},
			store.Column{Name: "fired_at", Type: store.TInt}, // trigger instant, epoch seconds
			store.Column{Name: "attempts", Type: store.TInt},
			store.Column{Name: "last_error", Type: store.TText},
			store.Column{Name: "dead_at", Type: store.TInt}, // when it was given up on
		)
		if err != nil {
			return nil, err
		}
		if err := e.db.CreateTable(DeadLetterTable, schema); err != nil {
			return nil, err
		}
		if err := e.db.CreateIndex(DeadLetterTable, "name"); err != nil {
			return nil, err
		}
	}
	// Rules restored from a snapshot have catalog rows but no attached
	// actions (actions are code); record them so redefinition reattaches.
	if tab, ok := e.db.Table(RuleInfoTable); ok {
		tab.Scan(func(_ int64, row store.Row) bool {
			e.orphans[strings.ToLower(row[0].S)] = true
			return true
		})
	}
	e.db.AddListener(e.dispatch)
	return e, nil
}

// Orphans lists rules present in RULE-INFO whose actions must be reattached
// by redefining them (after a snapshot restore).
func (e *Engine) Orphans() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.orphans))
	for name := range e.orphans {
		out = append(out, name)
	}
	return out
}

// takeOrphan claims an orphaned rule name for redefinition, reporting
// whether it was orphaned. If the definition then fails, restoreOrphan puts
// the claim back so the catalog rows stay reattachable.
func (e *Engine) takeOrphan(name string) bool {
	key := strings.ToLower(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.orphans[key] {
		return false
	}
	delete(e.orphans, key)
	return true
}

func (e *Engine) restoreOrphan(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.orphans[strings.ToLower(name)] = true
}

// deleteCatalogRows removes a rule's RULE-INFO and RULE-TIME rows inside tx.
func (e *Engine) deleteCatalogRows(tx *store.Txn, name string) error {
	for _, table := range []string{RuleInfoTable, RuleTimeTable} {
		tab, _ := e.db.Table(table)
		rids, err := tab.LookupEq("name", store.NewText(name))
		if err != nil {
			return err
		}
		for _, rid := range rids {
			if err := tx.Delete(table, rid); err != nil {
				return err
			}
		}
	}
	return nil
}

// Cal exposes the calendar catalog.
func (e *Engine) Cal() *caldb.Manager { return e.cal }

// DefineTemporalRule declares a rule "On <calendar expression> do <action>":
// a DefineTemporalRules batch of one.
func (e *Engine) DefineTemporalRule(name, calExpr string, action Action, now int64) error {
	return e.DefineTemporalRules(now, []TemporalRuleDef{{name, calExpr, action}})
}

// TemporalRuleDef is one rule of a DefineTemporalRules batch.
type TemporalRuleDef struct {
	Name    string
	CalExpr string
	Action  Action
}

// DefineTemporalRules defines a batch of temporal rules in one transaction.
// Parsing, plan preparation and first-trigger computation happen up front:
// rules sharing a calendar expression share its first trigger, values stamp
// and RULE-INFO plan, computed once per distinct expression on a worker pool
// — so defining N rules over K distinct expressions costs K next-instant
// computations plus one RULE-INFO and one RULE-TIME append per rule, all in a
// single transaction.
// A failure anywhere leaves no partial rows.
func (e *Engine) DefineTemporalRules(now int64, defs []TemporalRuleDef) error {
	if len(defs) == 0 {
		return nil
	}
	rules := make([]*temporalRule, len(defs))
	seen := make(map[string]bool, len(defs))
	e.mu.Lock()
	for i, d := range defs {
		key := strings.ToLower(d.Name)
		if strings.TrimSpace(d.Name) == "" {
			e.mu.Unlock()
			return fmt.Errorf("rules: empty rule name in batch entry %d", i)
		}
		if d.Action == nil {
			e.mu.Unlock()
			return fmt.Errorf("rules: rule %q needs an action", d.Name)
		}
		_, dupT := e.temporal[key]
		_, dupE := e.events[key]
		if dupT || dupE || seen[key] {
			e.mu.Unlock()
			return fmt.Errorf("rules: rule %q %w", d.Name, ErrAlreadyDefined)
		}
		seen[key] = true
	}
	e.mu.Unlock()
	for i, d := range defs {
		if err := e.cal.Prepared("", d.CalExpr).ExprErr; err != nil {
			return fmt.Errorf("rules: rule %q: %w", d.Name, err)
		}
		rules[i] = &temporalRule{name: d.Name, src: d.CalExpr, action: d.Action}
	}

	// One representative rule per distinct raw expression; the worker pool
	// computes each representative's trigger, then the result fans out.
	byExpr := make(map[string][]*temporalRule)
	var exprs []string
	for _, r := range rules {
		if _, ok := byExpr[r.src]; !ok {
			exprs = append(exprs, r.src)
		}
		byExpr[r.src] = append(byExpr[r.src], r)
	}
	plans := make([]string, len(exprs))
	err := parallelDo(len(exprs), func(i int) error {
		peers := byExpr[exprs[i]]
		rep := peers[0]
		next, values, err := e.nextTrigger(rep, now)
		if err != nil {
			return fmt.Errorf("rules: rule %q: %w", rep.name, err)
		}
		if plans[i], err = e.planText(rep.src, now); err != nil {
			return fmt.Errorf("rules: rule %q: %w", rep.name, err)
		}
		for _, r := range peers {
			r.next, r.values = next, values
		}
		return nil
	})
	if err != nil {
		return err
	}
	planOf := make(map[string]string, len(exprs))
	for i, src := range exprs {
		planOf[src] = plans[i]
	}

	orphaned := make([]string, 0, len(rules))
	for _, r := range rules {
		if e.takeOrphan(r.name) {
			orphaned = append(orphaned, r.name)
		}
	}
	if err := e.db.RunTxn(func(tx *store.Txn) error {
		for _, name := range orphaned {
			if err := e.deleteCatalogRows(tx, name); err != nil {
				return err
			}
		}
		for _, r := range rules {
			if _, err := tx.Append(RuleInfoTable, store.Row{
				store.NewText(r.name), store.NewText("temporal"), store.NewText(""), store.NewText(""),
				store.NewText(r.src), store.NewText(planOf[r.src]), store.NewText(r.action.Describe()),
			}); err != nil {
				return err
			}
			if err := faultinject.Hit(e.injector(), SiteDefineRuleTime); err != nil {
				return err
			}
			rid, err := tx.Append(RuleTimeTable, store.Row{store.NewText(r.name), store.NewInt(r.next)})
			if err != nil {
				return err
			}
			r.rid = rid
		}
		return nil
	}); err != nil {
		for _, name := range orphaned {
			e.restoreOrphan(name)
		}
		return err
	}
	e.mu.Lock()
	for _, r := range rules {
		e.temporal[strings.ToLower(r.name)] = r
	}
	e.mu.Unlock()
	return nil
}

// RecomputeAll recomputes, strictly after `now`, the next trigger of every
// live temporal rule whose values stamp moved (it reads a calendar written
// since its trigger was computed) and persists the changed rows in one
// RULE-TIME transaction — the mass path DBCRON runs after a calendar-catalog
// change; other rules are not touched. The recomputations run on a worker
// pool. A rule whose stored trigger is already due
// (<= now) keeps it, so pending catch-up firings are not skipped; and a
// recomputation never postpones a pending trigger — an armed instant still
// fires (matching fireChecked, which resolves the following trigger with the
// current catalog at fire time), so only earlier-moving triggers are
// rewritten here. Returns how many RULE-TIME rows changed.
func (e *Engine) RecomputeAll(now int64) (int, error) {
	e.mu.Lock()
	all := make([]*temporalRule, 0, len(e.temporal))
	held := make([]uint64, 0, len(e.temporal))
	for _, r := range e.temporal {
		all, held = append(all, r), append(held, r.values)
	}
	e.mu.Unlock()
	type group struct {
		p      *caldb.Prepared
		values uint64
	}
	groups := map[string]group{} // by source: one Prepared lookup each
	var rules []*temporalRule
	var moved []group
	for i, r := range all {
		g, ok := groups[r.src]
		if !ok {
			g.p = e.cal.Prepared("", r.src)
			g.values = g.p.Values()
			groups[r.src] = g
		}
		if g.values != held[i] {
			rules, moved = append(rules, r), append(moved, g)
		}
	}
	if len(rules) == 0 {
		return 0, nil
	}
	nexts := make([]int64, len(rules))
	if err := parallelDo(len(rules), func(i int) error {
		next, err := e.nextOn(moved[i].p, now)
		if err != nil {
			return fmt.Errorf("rules: rule %q: %w", rules[i].name, err)
		}
		nexts[i] = next
		return nil
	}); err != nil {
		return 0, err
	}
	changed := 0
	applied := make([]bool, len(rules))
	if err := e.db.RunTxn(func(tx *store.Txn) error {
		tab, ok := e.db.Table(RuleTimeTable)
		if !ok {
			return fmt.Errorf("rules: RULE_TIME missing")
		}
		for i, r := range rules {
			rids, err := tab.LookupEq("name", store.NewText(r.name))
			if err != nil || len(rids) == 0 {
				continue // dropped meanwhile
			}
			row, ok := tab.Get(rids[0])
			if !ok || row[1].I <= now || nexts[i] >= row[1].I {
				continue
			}
			if err := tx.Replace(RuleTimeTable, rids[0],
				store.Row{store.NewText(r.name), store.NewInt(nexts[i])}); err != nil {
				return err
			}
			applied[i] = true
			changed++
		}
		return nil
	}); err != nil {
		return 0, err
	}
	e.mu.Lock()
	for i, r := range rules {
		r.values = moved[i].values
		if applied[i] {
			r.next = nexts[i]
		}
	}
	e.mu.Unlock()
	return changed, nil
}

// parallelDo runs f(0..n-1) on a bounded worker pool, returning the first
// error.
func parallelDo(n int, f func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		idx      int64
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&idx, 1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// DefineEventRule declares "On <event> to <table> [where cond] do <action>".
func (e *Engine) DefineEventRule(name string, op store.EventOp, table string, cond Condition, action Action) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("rules: empty rule name")
	}
	if action == nil {
		return fmt.Errorf("rules: rule %q needs an action", name)
	}
	if _, ok := e.db.Table(table); !ok {
		return fmt.Errorf("rules: no table %q", table)
	}
	e.mu.Lock()
	_, dupT := e.temporal[strings.ToLower(name)]
	_, dupE := e.events[strings.ToLower(name)]
	e.mu.Unlock()
	if dupT || dupE {
		return fmt.Errorf("rules: rule %q %w", name, ErrAlreadyDefined)
	}
	wasOrphan := e.takeOrphan(name)
	if err := e.db.RunTxn(func(tx *store.Txn) error {
		if wasOrphan {
			if err := e.deleteCatalogRows(tx, name); err != nil {
				return err
			}
		}
		_, err := tx.Append(RuleInfoTable, store.Row{
			store.NewText(name), store.NewText("event"), store.NewText(op.String()), store.NewText(table),
			store.NewText(""), store.NewText(""), store.NewText(action.Describe()),
		})
		return err
	}); err != nil {
		if wasOrphan {
			e.restoreOrphan(name)
		}
		return err
	}
	e.mu.Lock()
	e.events[strings.ToLower(name)] = &eventRule{name: name, op: op, table: table, cond: cond, action: action}
	e.mu.Unlock()
	return nil
}

// DropRule removes a rule of either kind and tells registered daemons to
// discard any in-memory schedule state for it.
func (e *Engine) DropRule(name string) error {
	key := strings.ToLower(name)
	e.mu.Lock()
	_, isT := e.temporal[key]
	_, isE := e.events[key]
	delete(e.temporal, key)
	delete(e.events, key)
	listeners := make([]func(string), 0, len(e.onDrop))
	for _, fn := range e.onDrop {
		listeners = append(listeners, fn)
	}
	e.mu.Unlock()
	if !isT && !isE {
		return fmt.Errorf("rules: no rule %q", name)
	}
	if err := e.db.RunTxn(func(tx *store.Txn) error {
		return e.deleteCatalogRows(tx, name)
	}); err != nil {
		return err
	}
	for _, fn := range listeners {
		fn(key)
	}
	return nil
}

// RuleNames lists rules of both kinds.
func (e *Engine) RuleNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, r := range e.temporal {
		out = append(out, r.name)
	}
	for _, r := range e.events {
		out = append(out, r.name)
	}
	return out
}

// dispatch is the store listener delivering events to event rules.
func (e *Engine) dispatch(tx *store.Txn, ev store.Event) error {
	// Never dispatch on the rule catalogs themselves.
	if ev.Table == RuleInfoTable || ev.Table == RuleTimeTable {
		return nil
	}
	e.mu.Lock()
	matching := make([]*eventRule, 0, 2)
	for _, r := range e.events {
		if r.op == ev.Op && strings.EqualFold(r.table, ev.Table) {
			matching = append(matching, r)
		}
	}
	e.mu.Unlock()
	if len(matching) == 0 {
		return nil
	}
	// The actions take the event's address, which puts it on the heap: copy
	// it only once a rule matched, so an event no rule watches costs nothing.
	shared := ev
	for _, r := range matching {
		if r.cond != nil {
			ok, err := r.cond(tx, shared)
			if err != nil {
				return fmt.Errorf("rules: rule %s condition: %w", r.name, err)
			}
			if !ok {
				continue
			}
		}
		if err := r.action.Execute(tx, &shared, 0); err != nil {
			return fmt.Errorf("rules: rule %s action: %w", r.name, err)
		}
	}
	return nil
}

// nextTrigger returns a temporal rule's first trigger instant strictly after
// now and the values stamp it was computed at, read from the rule's Prepared
// entry, which the catalog parses and lowers once per shape of what the
// expression reads. The stamp is read before the answer, so a write between
// them leaves a stale stamp, which the next RecomputeAll recomputes, never a
// stale answer under a current stamp.
func (e *Engine) nextTrigger(r *temporalRule, now int64) (int64, uint64, error) {
	p := e.cal.Prepared("", r.src)
	values := p.Values()
	next, err := e.nextOn(p, now)
	return next, values, err
}

// planText renders a rule's RULE-INFO plan: its expression's plan over the
// horizon window of a query at `now`, the instant the rule is defined at.
func (e *Engine) planText(src string, now int64) (string, error) {
	l, err := e.cal.Prepared("", src).Lowered()
	if err != nil {
		return "", err
	}
	win, err := plan.HorizonWindow(e.cal.Chron(), l.Gran, now, e.LookaheadDays)
	if err != nil {
		return "", err
	}
	p, err := plan.Compile(e.cal.Env(), l.Expr, nil, l.Gran, win)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

// nextOn returns the first instant of a rule's Prepared entry strictly after
// now, or noTrigger: by arithmetic when its pattern answers /expand, else by
// evaluating the lookahead window (caldb.Prepared.NextAfter).
func (e *Engine) nextOn(p *caldb.Prepared, now int64) (int64, error) {
	next, ok, err := p.NextAfter(now, e.LookaheadDays)
	if err != nil {
		return 0, err
	}
	if !ok {
		next = noTrigger
	}
	return next, nil
}

// updateRuleTime persists a rule's recomputed next trigger. The rid lookup
// runs inside the same transaction as the replace, so a concurrent
// drop-and-redefine cannot slip between them and resurrect a stale rid.
func (e *Engine) updateRuleTime(name string, next int64) error {
	return e.db.RunTxn(func(tx *store.Txn) error {
		tab, ok := e.db.Table(RuleTimeTable)
		if !ok {
			return fmt.Errorf("rules: RULE_TIME missing")
		}
		rids, err := tab.LookupEq("name", store.NewText(name))
		if err != nil || len(rids) == 0 {
			return fmt.Errorf("rules: RULE_TIME row for %q missing", name)
		}
		return tx.Replace(RuleTimeTable, rids[0], store.Row{store.NewText(name), store.NewInt(next)})
	})
}

// DueWithin returns the temporal rules with next trigger at or before
// now+T from RULE-TIME — DBCRON's probe. The boundary is inclusive (a
// trigger exactly at now+T is due) and overdue rules (trigger <= now) are
// included so a busy or restarted daemon never loses a firing. Dormant
// rules — the noTrigger sentinel — are never scheduled, whatever T is.
func (e *Engine) DueWithin(now, T int64) ([]Firing, error) {
	tab, ok := e.db.Table(RuleTimeTable)
	if !ok {
		return nil, fmt.Errorf("rules: RULE_TIME missing")
	}
	hi := store.NewInt(now + T)
	rids, err := tab.LookupRange("next_trigger", nil, &hi)
	if err != nil {
		return nil, err
	}
	out := make([]Firing, 0, len(rids))
	for _, rid := range rids {
		row, ok := tab.Get(rid)
		if !ok || row[1].I >= noTrigger {
			continue
		}
		out = append(out, Firing{Rule: row[0].S, At: row[1].I})
	}
	return out, nil
}

// Firing is one scheduled rule activation.
type Firing struct {
	Rule string
	At   int64 // epoch seconds
}

// safeExecute runs an action with panic isolation: a panicking action is
// converted into an error so one bad rule cannot take down the daemon.
func safeExecute(a Action, tx *store.Txn, ev *store.Event, at int64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("action panicked: %v", p)
		}
	}()
	return a.Execute(tx, ev, at)
}

// fireChecked is the atomic firing path: the action and the RULE-TIME
// advance commit in one transaction, so a crash either loses the whole
// firing (the journal re-drives it) or none of it. Inside the transaction
// it first checks whether RULE-TIME already advanced past `at` — the mark
// of an earlier attempt that committed before a crash or after a timeout —
// and in that case reports success without re-executing (exactly-once).
// A positive timeout bounds the attempt; see ErrActionTimeout.
//
// A non-nil fence is evaluated inside the transaction before any effect: a
// daemon whose shard lease was stolen aborts here (ErrFenced) instead of
// committing a stale firing — the epoch-fencing invariant of the sharded
// fleet.
func (e *Engine) fireChecked(name string, at int64, timeout time.Duration, fence func() error) error {
	e.mu.Lock()
	r, ok := e.temporal[strings.ToLower(name)]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("rules: temporal rule %q disappeared", name)
	}
	next, values, err := e.nextTrigger(r, at)
	if err != nil {
		return err
	}
	run := func() error {
		return e.db.RunTxn(func(tx *store.Txn) error {
			if fence != nil {
				if err := fence(); err != nil {
					return err
				}
			}
			tab, ok := e.db.Table(RuleTimeTable)
			if !ok {
				return fmt.Errorf("rules: RULE_TIME missing")
			}
			e.mu.Lock()
			rid := r.rid
			e.mu.Unlock()
			row, ok := tab.Get(rid)
			if !ok || row[0].S != r.name {
				rids, err := tab.LookupEq("name", store.NewText(r.name))
				if err != nil || len(rids) == 0 {
					return fmt.Errorf("rules: RULE_TIME row for %q missing", r.name)
				}
				rid = rids[0]
				row, _ = tab.Get(rid)
				e.mu.Lock()
				r.rid = rid
				e.mu.Unlock()
			}
			if row[1].I > at {
				return errAlreadyFired
			}
			if err := faultinject.Hit(e.injector(), SiteFire); err != nil {
				return err
			}
			if err := safeExecute(r.action, tx, nil, at); err != nil {
				return fmt.Errorf("rules: rule %s action: %w", r.name, err)
			}
			return tx.Replace(RuleTimeTable, rid, store.Row{row[0], store.NewInt(next)})
		})
	}
	if timeout <= 0 {
		err = run()
	} else {
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err = <-done:
		case <-time.After(timeout):
			// The straggler goroutine keeps the transaction lock until it
			// finishes; if it eventually commits, the retry's already-fired
			// check sees the advanced RULE-TIME and does not double-execute.
			return fmt.Errorf("rules: rule %s: %w", name, ErrActionTimeout)
		}
	}
	if errors.Is(err, errAlreadyFired) {
		err = nil
	}
	if err != nil {
		return err
	}
	e.mu.Lock()
	r.next, r.values = next, values
	e.mu.Unlock()
	return nil
}

// deadLetter records a permanently failed firing in RULE-DEADLETTER and, in
// the same transaction, advances the rule's RULE-TIME past the failed
// instant so the dead firing stops being probed while later triggers and
// other rules proceed unimpeded.
func (e *Engine) deadLetter(name string, at int64, attempts int, lastErr string, now int64) error {
	e.mu.Lock()
	r, ok := e.temporal[strings.ToLower(name)]
	e.mu.Unlock()
	next, values := int64(noTrigger), unknownValues
	if ok {
		if n, v, err := e.nextTrigger(r, at); err == nil {
			next, values = n, v
		}
	}
	if err := e.db.RunTxn(func(tx *store.Txn) error {
		if _, err := tx.Append(DeadLetterTable, store.Row{
			store.NewText(name), store.NewInt(at), store.NewInt(int64(attempts)),
			store.NewText(lastErr), store.NewInt(now),
		}); err != nil {
			return err
		}
		tab, okT := e.db.Table(RuleTimeTable)
		if !okT {
			return nil
		}
		rids, err := tab.LookupEq("name", store.NewText(name))
		if err != nil || len(rids) == 0 {
			return nil // rule dropped meanwhile; the dead-letter row still lands
		}
		row, _ := tab.Get(rids[0])
		if row[1].I > at {
			return nil // already advanced
		}
		return tx.Replace(RuleTimeTable, rids[0], store.Row{store.NewText(row[0].S), store.NewInt(next)})
	}); err != nil {
		return err
	}
	if ok {
		e.mu.Lock()
		r.next, r.values = next, values
		e.mu.Unlock()
	}
	return nil
}

// DeadLetter is one permanently failed firing from RULE-DEADLETTER.
type DeadLetter struct {
	Rule      string
	At        int64 // the trigger instant that kept failing
	Attempts  int
	LastError string
	DeadAt    int64 // when the retry budget ran out
}

// DeadLetters lists the dead-letter table in insertion order.
func (e *Engine) DeadLetters() ([]DeadLetter, error) {
	tab, ok := e.db.Table(DeadLetterTable)
	if !ok {
		return nil, fmt.Errorf("rules: %s missing", DeadLetterTable)
	}
	var out []DeadLetter
	tab.Scan(func(_ int64, row store.Row) bool {
		out = append(out, DeadLetter{
			Rule: row[0].S, At: row[1].I, Attempts: int(row[2].I),
			LastError: row[3].S, DeadAt: row[4].I,
		})
		return true
	})
	return out, nil
}

// ReattachAction re-binds a Go action to an orphaned temporal rule (one
// restored from a snapshot), preserving its persisted RULE-TIME trigger.
// Unlike redefinition — which recomputes the first trigger from "now" — a
// reattach keeps an overdue trigger overdue, so crash recovery can catch up
// the firings missed while the daemon was down. Event rules carry no trigger
// state and conditions are code; redefine those instead.
func (e *Engine) ReattachAction(name string, action Action) error {
	if action == nil {
		return fmt.Errorf("rules: rule %q needs an action", name)
	}
	key := strings.ToLower(name)
	e.mu.Lock()
	orphan := e.orphans[key]
	e.mu.Unlock()
	if !orphan {
		return fmt.Errorf("rules: rule %q is not awaiting reattachment", name)
	}
	tab, _ := e.db.Table(RuleInfoTable)
	rids, err := tab.LookupEq("name", store.NewText(name))
	if err != nil || len(rids) == 0 {
		return fmt.Errorf("rules: no RULE_INFO row for %q", name)
	}
	row, _ := tab.Get(rids[0])
	if row[1].S != "temporal" {
		return fmt.Errorf("rules: %q is an event rule; redefine it to reattach", name)
	}
	src := row[4].S
	if err := e.cal.Prepared("", src).ExprErr; err != nil {
		return fmt.Errorf("rules: reattaching %q: %w", name, err)
	}
	next := int64(noTrigger)
	if stored, ok := e.storedNext(name); ok {
		next = stored
	}
	r := &temporalRule{name: row[0].S, src: src, action: action, next: next, values: unknownValues}
	e.mu.Lock()
	delete(e.orphans, key)
	e.temporal[key] = r
	e.mu.Unlock()
	return nil
}

// storedNext reads a rule's persisted next trigger from RULE-TIME.
func (e *Engine) storedNext(name string) (int64, bool) {
	tab, ok := e.db.Table(RuleTimeTable)
	if !ok {
		return 0, false
	}
	rids, err := tab.LookupEq("name", store.NewText(name))
	if err != nil || len(rids) == 0 {
		return 0, false
	}
	row, ok := tab.Get(rids[0])
	if !ok {
		return 0, false
	}
	return row[1].I, true
}

// missedInstants enumerates a rule's trigger instants from its persisted
// next trigger through `now` (inclusive), capped at max entries (0 = no
// cap). It performs no firing and no catalog writes.
func (e *Engine) missedInstants(name string, now int64, max int) ([]int64, error) {
	e.mu.Lock()
	r, ok := e.temporal[strings.ToLower(name)]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rules: temporal rule %q disappeared", name)
	}
	t, ok := e.storedNext(name)
	if !ok {
		return nil, fmt.Errorf("rules: RULE_TIME row for %q missing", name)
	}
	var out []int64
	for t <= now && t < noTrigger {
		out = append(out, t)
		if max > 0 && len(out) >= max {
			break
		}
		nt, _, err := e.nextTrigger(r, t)
		if err != nil {
			return out, err
		}
		t = nt
	}
	return out, nil
}

// skipPast recomputes a rule's next trigger strictly after `now` and
// persists it without firing — the Skip catch-up policy, and the fast-
// forward under FireLast.
func (e *Engine) skipPast(name string, now int64) (int64, error) {
	e.mu.Lock()
	r, ok := e.temporal[strings.ToLower(name)]
	e.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("rules: temporal rule %q disappeared", name)
	}
	next, values, err := e.nextTrigger(r, now)
	if err != nil {
		return 0, err
	}
	if err := e.updateRuleTime(r.name, next); err != nil {
		return 0, err
	}
	e.mu.Lock()
	r.next, r.values = next, values
	e.mu.Unlock()
	return next, nil
}

// hasTemporal reports whether a live (action-attached) temporal rule with
// this name exists.
func (e *Engine) hasTemporal(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.temporal[strings.ToLower(name)]
	return ok
}

// canonicalName resolves a rule's defined (original-case) name from any
// casing — journal high-water keys are lower-cased, RULE-TIME stores the
// defined casing.
func (e *Engine) canonicalName(name string) (string, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.temporal[strings.ToLower(name)]
	if !ok {
		return "", false
	}
	return r.name, true
}

// nextOf reports a temporal rule's cached next trigger (noTrigger when
// dormant or unknown).
func (e *Engine) nextOf(name string) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.temporal[strings.ToLower(name)]; ok {
		return r.next
	}
	return noTrigger
}

// RuleInfoRow renders a rule's RULE-INFO tuple.
func (e *Engine) RuleInfoRow(name string) (string, error) {
	tab, _ := e.db.Table(RuleInfoTable)
	rids, err := tab.LookupEq("name", store.NewText(name))
	if err != nil || len(rids) == 0 {
		return "", fmt.Errorf("rules: no rule %q", name)
	}
	row, _ := tab.Get(rids[0])
	var b strings.Builder
	fmt.Fprintf(&b, "Name     | %s\n", row[0].S)
	fmt.Fprintf(&b, "Kind     | %s\n", row[1].S)
	if row[1].S == "event" {
		fmt.Fprintf(&b, "Event    | %s on %s\n", row[2].S, row[3].S)
	} else {
		fmt.Fprintf(&b, "Calendar | %s\n", row[4].S)
		fmt.Fprintf(&b, "Plan     | %s\n", strings.ReplaceAll(row[5].S, "\n", " ; "))
	}
	fmt.Fprintf(&b, "Action   | %s\n", row[6].S)
	return b.String(), nil
}
