// Package caldb manages the CALENDARS catalog table of Figure 1 inside the
// extensible database: each user-defined calendar is a tuple
//
//	CALENDARS(name, derivation-script, eval-plan, lifespan, granularity, values)
//
// and the package implements plan.Catalog on top of it, so the expression
// compiler and the rule system resolve calendars straight from the catalog.
package caldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	calvet "calsys/internal/core/callang/vet"
	"calsys/internal/core/interval"
	"calsys/internal/core/matcache"
	"calsys/internal/core/plan"
	"calsys/internal/store"
)

// TableName is the catalog table's name.
const TableName = "CALENDARS"

// GranAuto asks DefineDerived to infer the calendar's granularity from its
// derivation script.
const GranAuto chronology.Granularity = -1

// ErrAlreadyDefined is wrapped by DefineDerived and DefineStored when the
// name is taken (including by a concurrent definition that won the race).
var ErrAlreadyDefined = errors.New("already defined")

// ErrNotDefined is wrapped by Drop when the catalog has no such calendar, so
// callers can tell "nothing to drop" from a failed catalog transaction.
var ErrNotDefined = errors.New("not defined")

// MaxDayTick stands in for the paper's ∞ lifespan bound (roughly the year
// 10000 for a late-20th-century epoch).
const MaxDayTick = callang.UnboundedDayTick

// Lifespan is the validity range of a calendar in day ticks; Hi = MaxDayTick
// renders as ∞ (Figure 1 shows (1985, ∞)).
type Lifespan struct {
	Lo, Hi chronology.Tick
}

// Unbounded reports an open upper bound.
func (l Lifespan) Unbounded() bool { return l.Hi >= MaxDayTick }

// String renders the lifespan like Figure 1.
func (l Lifespan) String() string {
	if l.Unbounded() {
		return fmt.Sprintf("(%d,∞)", l.Lo)
	}
	return fmt.Sprintf("(%d,%d)", l.Lo, l.Hi)
}

// Entry is one decoded CALENDARS tuple.
type Entry struct {
	Name       string
	Derivation string // empty for stored-values calendars
	EvalPlan   string
	Lifespan   Lifespan
	Gran       chronology.Granularity
	Values     *calendar.Calendar // nil for derived calendars
	// Warnings are the calvet warnings recorded when the calendar was
	// defined (or last re-vetted); rendered by FigureRow/Describe.
	Warnings []string
	// Version is the catalog generation this entry was last written at;
	// materializations computed against an older generation are stale.
	Version uint64
	script  *callang.Script
}

// Manager owns the CALENDARS table and resolves calendar names for the
// planner and rule system.
type Manager struct {
	db    *store.DB
	chron *chronology.Chronology

	// mat is the shared cross-evaluation materialization cache; scope
	// namespaces this manager's entries in it. gen is the catalog
	// generation, bumped on every Define/Replace/Drop so stale
	// materializations stop being addressable.
	mat   *matcache.Cache
	scope string
	gen   atomic.Uint64

	mu    sync.RWMutex
	cache map[string]*Entry // lower-case name -> decoded entry
	// volatile memoizes VolatileOf per generation (volGen is the generation
	// the memo was computed at).
	volatile map[string]bool
	volGen   uint64

	// prep is the current generation's prepared-expression table (see
	// prepared.go), replaced wholesale under prepMu; the counters accumulate.
	prepMu                           sync.RWMutex
	prep                             *preparedTable
	prepHits, prepMisses, prepResets atomic.Int64

	// listeners are invoked (outside m.mu) after every successful catalog
	// mutation; DBCRON uses this to schedule a mass next-trigger recompute.
	listenMu  sync.Mutex
	listeners []func()
}

// AddChangeListener registers a callback invoked after every successful
// catalog mutation (Define / Replace / Drop), outside the manager's locks.
// Callbacks should only set flags or send on channels; heavy work belongs in
// the caller's own loop.
func (m *Manager) AddChangeListener(fn func()) {
	m.listenMu.Lock()
	defer m.listenMu.Unlock()
	m.listeners = append(m.listeners, fn)
}

// notifyChanged fires the change listeners.
func (m *Manager) notifyChanged() {
	m.listenMu.Lock()
	fns := append([]func(){}, m.listeners...)
	m.listenMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// scopeCounter distinguishes managers sharing the process-wide cache.
var scopeCounter atomic.Uint64

// catalogCols are the column types a CALENDARS table must lead with; a
// restored snapshot whose catalog disagrees is rejected up front instead of
// decoding garbage (or panicking on short rows) later.
var catalogCols = []store.Type{
	store.TText, store.TText, store.TText, store.TInterval, store.TText, store.TCalendar,
}

// checkCatalogSchema validates an existing CALENDARS table (e.g. one restored
// from a snapshot) against the layout of Figure 1.
func checkCatalogSchema(tab *store.Table) error {
	if len(tab.Schema.Cols) < len(catalogCols) {
		return fmt.Errorf("caldb: CALENDARS table has %d columns, want at least %d (incompatible snapshot?)",
			len(tab.Schema.Cols), len(catalogCols))
	}
	for i, want := range catalogCols {
		if got := tab.Schema.Cols[i].Type; got != want {
			return fmt.Errorf("caldb: CALENDARS column %d (%s) has type %v, want %v (incompatible snapshot?)",
				i, tab.Schema.Cols[i].Name, got, want)
		}
	}
	return nil
}

// New creates (if necessary) the CALENDARS table and returns a Manager with
// an anonymous materialization-cache scope.
func New(db *store.DB, chron *chronology.Chronology) (*Manager, error) {
	return NewScoped(db, chron, "")
}

// NewScoped is New with a caller-chosen scope prefix for the shared
// materialization cache. The serving layer passes "tenant/<name>" so every
// cache key is tenant-prefixed and carries that tenant's own catalog
// generation: one tenant's Replace bumps only its own generation, leaving
// every other tenant's warm entries addressable. The prefix is combined with
// a process-unique incarnation counter, so dropping and recreating a tenant
// under the same name can never alias a stale entry from the previous
// incarnation (both start their generation counters at 1).
func NewScoped(db *store.DB, chron *chronology.Chronology, scope string) (*Manager, error) {
	if tab, ok := db.Table(TableName); ok {
		if err := checkCatalogSchema(tab); err != nil {
			return nil, err
		}
	} else {
		schema, err := store.NewSchema(
			store.Column{Name: "name", Type: store.TText},
			store.Column{Name: "derivation_script", Type: store.TText},
			store.Column{Name: "eval_plan", Type: store.TText},
			store.Column{Name: "lifespan", Type: store.TInterval},
			store.Column{Name: "granularity", Type: store.TText},
			store.Column{Name: "calvalues", Type: store.TCalendar},
			store.Column{Name: "vet_warnings", Type: store.TText},
		)
		if err != nil {
			return nil, err
		}
		if err := db.CreateTable(TableName, schema); err != nil {
			return nil, err
		}
		if err := db.CreateIndex(TableName, "name"); err != nil {
			return nil, err
		}
	}
	if scope == "" {
		scope = "caldb"
	}
	m := &Manager{
		db: db, chron: chron, cache: map[string]*Entry{},
		mat:   matcache.Shared(),
		scope: fmt.Sprintf("%s#%d|%v", scope, scopeCounter.Add(1), chron.Epoch()),
		prep:  newPreparedTable(0),
	}
	m.gen.Store(1)
	if err := m.reload(); err != nil {
		return nil, err
	}
	return m, nil
}

// CatalogGeneration implements plan.VersionedCatalog: a counter bumped on
// every Define/Replace/Drop. Shared materializations of catalog-dependent
// calendars are keyed by it, so any catalog mutation invalidates them.
func (m *Manager) CatalogGeneration() uint64 { return m.gen.Load() }

// bump advances the catalog generation and returns the new value. Callers
// hold m.mu for writing and change m.cache in the same critical section: a
// reader that sees the new generation also sees the new catalog, so nothing
// computed from the old catalog is filed under the new generation.
func (m *Manager) bump() uint64 { return m.gen.Add(1) }

// DB exposes the underlying database.
func (m *Manager) DB() *store.DB { return m.db }

// Chron exposes the chronology.
func (m *Manager) Chron() *chronology.Chronology { return m.chron }

// Env returns a fresh evaluation environment bound to this catalog and the
// shared materialization cache. Callers set Now/Wait as needed.
func (m *Manager) Env() *plan.Env {
	return &plan.Env{Chron: m.chron, Cat: m, Mat: m.mat, MatScope: m.scope}
}

// MatStats snapshots the shared materialization cache's counters (the cache
// is process-wide; the counters aggregate across catalogs).
func (m *Manager) MatStats() matcache.Stats { return m.mat.Stats() }

// reload rebuilds the cache from the table (startup, or after external
// writes).
func (m *Manager) reload() error {
	tab, ok := m.db.Table(TableName)
	if !ok {
		return fmt.Errorf("caldb: CALENDARS table missing")
	}
	cache := map[string]*Entry{}
	var decodeErr error
	tab.Scan(func(rid int64, row store.Row) bool {
		e, err := decodeEntry(row)
		if err != nil {
			decodeErr = fmt.Errorf("caldb: CALENDARS row %d: %w", rid, err)
			return false
		}
		cache[strings.ToLower(e.Name)] = e
		return true
	})
	if decodeErr != nil {
		return decodeErr
	}
	m.mu.Lock()
	gen := m.bump()
	for _, e := range cache {
		e.Version = gen
	}
	m.cache = cache
	m.mu.Unlock()
	return nil
}

func decodeEntry(row store.Row) (*Entry, error) {
	if len(row) < len(catalogCols) {
		return nil, fmt.Errorf("row has %d columns, want at least %d", len(row), len(catalogCols))
	}
	e := &Entry{
		Name:       row[0].S,
		Derivation: row[1].S,
		EvalPlan:   row[2].S,
		Lifespan:   Lifespan{Lo: row[3].Iv.Lo, Hi: row[3].Iv.Hi},
		Values:     row[5].Cal,
	}
	if strings.TrimSpace(e.Name) == "" {
		return nil, fmt.Errorf("entry has an empty name")
	}
	g, err := chronology.ParseGranularity(row[4].S)
	if err != nil {
		return nil, fmt.Errorf("entry %q: bad granularity: %w", e.Name, err)
	}
	e.Gran = g
	if e.Derivation != "" {
		s, err := callang.ParseDerivation(e.Derivation)
		if err != nil {
			return nil, fmt.Errorf("entry %q: bad derivation script: %w", e.Name, err)
		}
		e.script = s
	}
	// Rows written before the vet_warnings column existed are one value
	// short; treat them as warning-free.
	if len(row) > 6 && row[6].S != "" {
		e.Warnings = strings.Split(row[6].S, "\n")
	}
	return e, nil
}

// checkName rejects empty names and names that shadow basic calendars.
func checkName(name string) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("caldb: empty calendar name")
	}
	if _, err := chronology.ParseGranularity(name); err == nil {
		return fmt.Errorf("caldb: %q shadows a basic calendar", name)
	}
	if callang.IsToday(name) {
		return fmt.Errorf("caldb: %q is a reserved name", name)
	}
	return nil
}

// DefineDerived records a derived calendar: its derivation script is parsed,
// its granularity inferred (or overridden when gran is valid), and its
// evaluation plan compiled over the lifespan and stored in the catalog, as
// in Figure 1.
func (m *Manager) DefineDerived(name, derivation string, lifespan Lifespan, gran chronology.Granularity) error {
	if err := checkName(name); err != nil {
		return err
	}
	if m.exists(name) {
		return fmt.Errorf("caldb: calendar %q %w", name, ErrAlreadyDefined)
	}
	// A caller that vetted (name, derivation) first — the serving layer's
	// vet-on-write — already parsed and analysed this entry.
	p := m.Prepared(name, derivation)
	script := p.Script
	if script == nil {
		return p.scriptErr
	}
	if gran == GranAuto {
		gran = m.inferGran(script)
	} else if !gran.Valid() {
		return fmt.Errorf("caldb: invalid granularity %v", gran)
	}
	if lifespan.Lo == 0 || lifespan.Hi == 0 || lifespan.Lo > lifespan.Hi {
		return fmt.Errorf("caldb: invalid lifespan %v", lifespan)
	}

	// Static analysis before any plan work: undefined references, cycles and
	// no-zero violations reject the definition with positioned diagnostics;
	// warnings are recorded in the catalog row.
	diags := p.Diags()
	if diags.HasErrors() {
		return fmt.Errorf("caldb: %q does not vet:\n%s", name, diags.Errors())
	}
	warnings := diagLines(diags.Warnings())

	// Compile the eval-plan column for the catalog.
	planText, err := m.renderPlan(script, lifespan)
	if err != nil {
		return fmt.Errorf("caldb: %q does not compile: %w", name, err)
	}

	entry := &Entry{
		Name: name, Derivation: script.String(), EvalPlan: planText,
		Lifespan: lifespan, Gran: gran, script: script, Warnings: warnings,
	}
	return m.insert(entry)
}

// diagLines renders diagnostics one per line for catalog storage.
func diagLines(ds calvet.Diags) []string {
	if len(ds) == 0 {
		return nil
	}
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

// Vet statically analyzes a derivation source as if it were being defined
// under name (which may be empty for anonymous expressions), without
// touching the catalog. Parse failures surface as diagnostics. The analysis
// runs once per catalog generation (see Prepared); the result is shared.
func (m *Manager) Vet(name, derivation string) calvet.Diags {
	return m.Prepared(name, derivation).Diags()
}

// VetDefined re-runs the static analyzer over an already-defined calendar's
// derivation script.
func (m *Manager) VetDefined(name string) (calvet.Diags, error) {
	e, ok := m.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("caldb: no calendar %q", name)
	}
	if e.script == nil {
		return nil, nil // stored-values calendars have nothing to vet
	}
	return calvet.AnalyzeScript(e.script, m, calvet.Options{SelfName: e.Name, Chron: m.chron}), nil
}

// DefineStored records a calendar with explicit values (e.g. HOLIDAYS).
func (m *Manager) DefineStored(name string, values *calendar.Calendar, lifespan Lifespan) error {
	if err := checkName(name); err != nil {
		return err
	}
	if m.exists(name) {
		return fmt.Errorf("caldb: calendar %q %w", name, ErrAlreadyDefined)
	}
	if values == nil {
		return fmt.Errorf("caldb: stored calendar %q needs values", name)
	}
	if lifespan.Lo == 0 || lifespan.Hi == 0 || lifespan.Lo > lifespan.Hi {
		return fmt.Errorf("caldb: invalid lifespan %v", lifespan)
	}
	entry := &Entry{
		Name: name, EvalPlan: "LOAD " + name,
		Lifespan: lifespan, Gran: values.Granularity(), Values: values,
	}
	return m.insert(entry)
}

// ReplaceStored updates the values of a stored calendar (holiday lists
// change year to year).
func (m *Manager) ReplaceStored(name string, values *calendar.Calendar) error {
	m.mu.RLock()
	e, ok := m.cache[strings.ToLower(name)]
	m.mu.RUnlock()
	if !ok || e.Values == nil {
		return fmt.Errorf("caldb: no stored calendar %q", name)
	}
	// Re-vet every derived calendar that references the replaced one against
	// its post-replacement granularity: new errors reject the replacement
	// before it lands, new warnings refresh the dependents' catalog rows.
	revetted, err := m.revetDependents(e.Name, values.Granularity())
	if err != nil {
		return err
	}
	tab, _ := m.db.Table(TableName)
	rids, err := tab.LookupEq("name", store.NewText(e.Name))
	if err != nil || len(rids) == 0 {
		return fmt.Errorf("caldb: catalog row for %q missing", name)
	}
	row, _ := tab.Get(rids[0])
	newRow := row.Clone()
	newRow[5] = store.NewCalendar(values)
	newRow[4] = store.NewText(values.Granularity().String())
	if err := m.db.RunTxn(func(tx *store.Txn) error {
		return tx.Replace(TableName, rids[0], newRow)
	}); err != nil {
		return err
	}
	m.mu.Lock()
	gen := m.bump()
	upd := *e
	upd.Values = values
	upd.Gran = values.Granularity()
	upd.Version = gen
	m.cache[strings.ToLower(name)] = &upd
	m.mu.Unlock()
	for dep, warnings := range revetted {
		m.refreshWarnings(dep, warnings, gen)
	}
	m.notifyChanged()
	return nil
}

// granOverride resolves one calendar name to a hypothetical granularity,
// deferring everything else to the Manager; ReplaceStored uses it to vet
// dependents against the replacement before committing it.
type granOverride struct {
	*Manager
	name string
	g    chronology.Granularity
}

func (o granOverride) ElemKindOf(name string) (chronology.Granularity, bool) {
	if strings.EqualFold(name, o.name) {
		return o.g, true
	}
	return o.Manager.ElemKindOf(name)
}

// revetDependents vets every derived calendar referencing name as if name
// had granularity g, returning each dependent's fresh warning set, or an
// error if any dependent stops vetting clean.
func (m *Manager) revetDependents(name string, g chronology.Granularity) (map[string][]string, error) {
	var deps []*Entry
	for _, n := range m.Names() { // a snapshot: the analysis below re-enters m.mu
		e, ok := m.Lookup(n)
		if !ok || e.script == nil {
			continue
		}
		for ref := range callang.AnalyzeScript(e.script, m).Refs {
			if strings.EqualFold(ref, name) {
				deps = append(deps, e)
				break
			}
		}
	}
	if len(deps) == 0 {
		return nil, nil
	}
	cat := granOverride{Manager: m, name: name, g: g}
	out := map[string][]string{}
	for _, dep := range deps {
		diags := calvet.AnalyzeScript(dep.script, cat, calvet.Options{SelfName: dep.Name, Chron: m.chron})
		if diags.HasErrors() {
			return nil, fmt.Errorf("caldb: replacing %q breaks %q:\n%s", name, dep.Name, diags.Errors())
		}
		out[dep.Name] = diagLines(diags.Warnings())
	}
	return out, nil
}

// refreshWarnings rewrites a calendar's stored warning list in cache and
// catalog row.
func (m *Manager) refreshWarnings(name string, warnings []string, gen uint64) {
	m.mu.Lock()
	e, ok := m.cache[strings.ToLower(name)]
	if ok {
		upd := *e
		upd.Warnings = warnings
		upd.Version = gen
		m.cache[strings.ToLower(name)] = &upd
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	tab, _ := m.db.Table(TableName)
	rids, err := tab.LookupEq("name", store.NewText(e.Name))
	if err != nil || len(rids) == 0 {
		return
	}
	row, ok := tab.Get(rids[0])
	if !ok || len(row) <= 6 {
		return
	}
	newRow := row.Clone()
	newRow[6] = store.NewText(strings.Join(warnings, "\n"))
	_ = m.db.RunTxn(func(tx *store.Txn) error {
		return tx.Replace(TableName, rids[0], newRow)
	})
}

// Drop removes a calendar definition.
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	key := strings.ToLower(name)
	e, ok := m.cache[key]
	if ok {
		delete(m.cache, key)
		m.bump()
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("caldb: calendar %q %w", name, ErrNotDefined)
	}
	tab, _ := m.db.Table(TableName)
	rids, err := tab.LookupEq("name", store.NewText(e.Name))
	if err != nil {
		return err
	}
	if err := m.db.RunTxn(func(tx *store.Txn) error {
		for _, rid := range rids {
			if err := tx.Delete(TableName, rid); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m.notifyChanged()
	return nil
}

// Lookup returns a calendar's catalog entry.
func (m *Manager) Lookup(name string) (*Entry, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.cache[strings.ToLower(name)]
	return e, ok
}

// Names lists defined calendars (excluding basic ones).
func (m *Manager) Names() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.cache))
	for _, e := range m.cache {
		out = append(out, e.Name)
	}
	return out
}

func (m *Manager) exists(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.cache[strings.ToLower(name)]
	return ok
}

func (m *Manager) insert(e *Entry) error {
	values := store.Value{T: store.TCalendar}
	if e.Values != nil {
		values = store.NewCalendar(e.Values)
	}
	row := store.Row{
		store.NewText(e.Name),
		store.NewText(e.Derivation),
		store.NewText(e.EvalPlan),
		store.NewInterval(interval.Interval{Lo: e.Lifespan.Lo, Hi: e.Lifespan.Hi}),
		store.NewText(e.Gran.String()),
		values,
		store.NewText(strings.Join(e.Warnings, "\n")),
	}
	// Transactions are serialized and this one holds both the name check and
	// the catalog update: of two racing definitions the second fails.
	if err := m.db.RunTxn(func(tx *store.Txn) error {
		if m.exists(e.Name) {
			return fmt.Errorf("caldb: calendar %q %w", e.Name, ErrAlreadyDefined)
		}
		if _, err := tx.Append(TableName, row); err != nil {
			return err
		}
		m.mu.Lock()
		e.Version = m.bump()
		m.cache[strings.ToLower(e.Name)] = e
		m.mu.Unlock()
		return nil
	}); err != nil {
		return err
	}
	m.notifyChanged()
	return nil
}

// inferGran picks a calendar's element kind from its derivation: for a
// script that is an expression, the expression's kind; otherwise the
// script's tick granularity.
func (m *Manager) inferGran(script *callang.Script) chronology.Granularity {
	if e, ok := script.AsExpr(); ok {
		if g, ok := callang.ElemKind(e, m); ok {
			return g
		}
	}
	return callang.AnalyzeScript(script, m).TickGran
}

// renderPlan compiles a derivation for the eval-plan catalog column, which
// keeps the literal rule (Figure 1's rows are pinned): a plan for a
// one-statement derivation, the script text for anything longer — even a
// straight-line script, although that is evaluated as its expression.
func (m *Manager) renderPlan(script *callang.Script, lifespan Lifespan) (string, error) {
	env := m.Env()
	if e, ok := script.AsExpr(); ok && len(script.Stmts) == 1 {
		prepped, gran, err := plan.Prepare(env, e, nil)
		if err != nil {
			return "", err
		}
		win := convertLifespan(m.chron, lifespan, gran)
		p, err := plan.Compile(env, prepped, nil, gran, win)
		if err != nil {
			return "", err
		}
		return p.String(), nil
	}
	return "SCRIPT " + script.String(), nil
}

func convertLifespan(ch *chronology.Chronology, l Lifespan, gran chronology.Granularity) interval.Interval {
	lo := ch.TickAt(gran, ch.UnitStart(chronology.Day, l.Lo))
	hi := ch.TickAt(gran, ch.UnitEndExcl(chronology.Day, l.Hi)-1)
	return interval.Interval{Lo: lo, Hi: hi}
}

// --- plan.Catalog ------------------------------------------------------

// DerivationOf implements plan.Catalog.
func (m *Manager) DerivationOf(name string) (*callang.Script, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.cache[strings.ToLower(name)]
	if !ok || e.script == nil {
		return nil, false
	}
	return e.script, true
}

// ElemKindOf implements plan.Catalog.
func (m *Manager) ElemKindOf(name string) (chronology.Granularity, bool) {
	if g, err := chronology.ParseGranularity(name); err == nil {
		return g, true
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.cache[strings.ToLower(name)]
	if !ok {
		return 0, false
	}
	return e.Gran, true
}

// LifespanOf implements callang.LifespanLookup: the lifespan column of
// Figure 1, in day ticks.
func (m *Manager) LifespanOf(name string) (lo, hi chronology.Tick, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, found := m.cache[strings.ToLower(name)]
	if !found {
		return 0, 0, false
	}
	return e.Lifespan.Lo, e.Lifespan.Hi, true
}

// StoredCalendar implements plan.Catalog.
func (m *Manager) StoredCalendar(name string) (*calendar.Calendar, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.cache[strings.ToLower(name)]
	if !ok || e.Values == nil {
		return nil, false
	}
	return e.Values, true
}

// VolatileOf implements plan.VolatilityCatalog: whether the named calendar's
// value can change between evaluations at one catalog generation, because
// its derivation — directly or through referenced calendars — reads `today`
// or waits on the clock. Volatile calendars are never served from the shared
// materialization cache. Results are memoized per catalog generation.
func (m *Manager) VolatileOf(name string) bool {
	key := strings.ToLower(name)
	gen := m.gen.Load()
	m.mu.Lock()
	if m.volGen != gen {
		m.volatile = map[string]bool{}
		m.volGen = gen
	} else if v, ok := m.volatile[key]; ok {
		m.mu.Unlock()
		return v
	}
	m.mu.Unlock()
	v := callang.DerivedClockRead(key, m, map[string]bool{})
	m.mu.Lock()
	if m.volGen == gen {
		m.volatile[key] = v
	}
	m.mu.Unlock()
	return v
}

// exprVolatile reports whether an expression's value can change between
// evaluations at one catalog generation (it reads `today`, directly or via a
// referenced derived calendar).
func (m *Manager) exprVolatile(e callang.Expr) bool {
	_, clock := callang.ClockRead(callang.ExprScript(e), m.VolatileOf)
	return clock
}

// --- evaluation conveniences -------------------------------------------

// EvalExpr parses and evaluates a calendar expression over a civil window.
func (m *Manager) EvalExpr(src string, from, to chronology.Civil) (*calendar.Calendar, error) {
	return m.EvalExprEnv(m.Env(), src, from, to)
}

// EvalExprEnv is EvalExpr with a caller-supplied environment (clock, wait
// hook, optimization toggles). Parse, lowering and cache key come from the
// source's Prepared entry; per call there is only the window.
//
// The shared materialization cache is consulted for the whole expression's
// result first. Expression results are cached under their exact window only
// (derived windows have boundary effects, so slicing a superset is unsound)
// and keyed by the catalog generation, so any Define/Replace/Drop invalidates
// them. Volatile expressions (reading `today`) and environments with any
// optimization ablated bypass the cache so results and benchmarks stay honest.
func (m *Manager) EvalExprEnv(env *plan.Env, src string, from, to chronology.Civil) (*calendar.Calendar, error) {
	p := m.Prepared("", src)
	if p.ExprErr != nil {
		return nil, p.ExprErr
	}
	if env.Mat == nil || env.DisableSharing || env.DisableFactorization ||
		env.DisableWindowInference {
		return plan.Evaluate(env, p.Expr, from, to)
	}
	l, err := p.Lowered()
	if err != nil {
		return nil, err
	}
	if l.Volatile {
		return plan.Evaluate(env, p.Expr, from, to)
	}
	win, err := plan.CivilWindow(env.Chron, l.Gran, from, to)
	if err != nil {
		return nil, err
	}
	key := matcache.Key{Scope: env.MatScope, ID: l.cacheID, Version: p.Gen, Gran: l.Gran}
	if c, ok := env.Mat.Get(key, win); ok {
		return c, nil
	}
	// Fly the whole-expression materialization: when a tenant Replace bumps
	// the generation, every concurrent client of a popular expression misses
	// at once, and without coalescing each would compile and execute the
	// same plan (the classic cache stampede). Expression flights sit at the
	// top of the materialization hierarchy — their leaders may wait on
	// derived-level flights, never on other expression flights — so the wait
	// graph stays acyclic.
	return env.Mat.Do(key, win, func() (*calendar.Calendar, error) {
		pl, err := plan.Compile(env, l.Expr, nil, l.Gran, win)
		if err != nil {
			return nil, err
		}
		return pl.Exec(env, nil)
	})
}

// RunScript parses and runs a calendar script over a civil window.
func (m *Manager) RunScript(src string, from, to chronology.Civil) (plan.Value, error) {
	s, err := callang.ParseScript(src)
	if err != nil {
		return plan.Value{}, err
	}
	return plan.RunScript(m.Env(), s, from, to)
}

// FigureRow renders a calendar's catalog tuple in the layout of Figure 1.
func (m *Manager) FigureRow(name string) (string, error) {
	e, ok := m.Lookup(name)
	if !ok {
		return "", fmt.Errorf("caldb: no calendar %q", name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Name              | %s\n", e.Name)
	fmt.Fprintf(&b, "Derivation-Script | %s\n", e.Derivation)
	fmt.Fprintf(&b, "Eval-Plan         | %s\n", strings.ReplaceAll(e.EvalPlan, "\n", " ; "))
	fmt.Fprintf(&b, "Lifespan          | %s\n", e.Lifespan)
	fmt.Fprintf(&b, "Granularity       | %s\n", e.Gran)
	if e.Values != nil {
		fmt.Fprintf(&b, "Values            | %s\n", e.Values)
	} else {
		fmt.Fprintf(&b, "Values            |\n")
	}
	for _, w := range e.Warnings {
		fmt.Fprintf(&b, "Vet-Warnings      | %s\n", w)
	}
	return b.String(), nil
}
