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
	"hash/maphash"
	"slices"
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
	// Version is the generation of the entry's last write, shape that of its
	// last write changing derivation, kind, granularity or existence (a
	// replace keeping the granularity moves Version only). digest is the
	// content a read of the entry depends on (digestOf). See stampsLocked.
	Version uint64
	shape   uint64
	digest  uint64
	script  *callang.Script
	refs    []string // refsOf the script; nil for stored calendars
}

// seed keys the string hashes of digests and content keys, which live only
// as long as the process (the cache they version is in memory).
var seed = maphash.MakeSeed()

// digestOf hashes what a read of e depends on: a stored calendar's
// granularity, lifespan and intervals, a derived one's derivation text,
// lifespan and granularity.
func digestOf(e *Entry) uint64 {
	h := calendar.Mix(maphash.String(seed, e.Derivation), uint64(e.Gran))
	h = calendar.Mix(calendar.Mix(h, uint64(e.Lifespan.Lo)), uint64(e.Lifespan.Hi))
	if e.Values != nil {
		h = calendar.Mix(h, e.Values.Digest())
	}
	return h
}

// Manager owns the CALENDARS table and resolves calendar names for the
// planner and rule system.
type Manager struct {
	db    *store.DB
	chron *chronology.Chronology

	// mat is the shared cross-evaluation materialization cache; scope
	// namespaces this manager's entries in it. gen is the catalog
	// generation, bumped on every Define/Replace/Drop: every stamp (see
	// stampsLocked) is drawn from it.
	mat   *matcache.Cache
	scope string
	gen   atomic.Uint64

	mu    sync.RWMutex
	cache map[string]*Entry // lower-case name -> decoded entry
	// dropped is the generation each absent name was last dropped at, so an
	// absent name has a generation too (a name never defined has 0).
	dropped map[string]uint64

	// prep is the prepared-expression table (see prepared.go), under prepMu;
	// the counters accumulate.
	prepMu                                                                   sync.RWMutex
	prep                                                                     map[preparedKey]*Prepared
	prepHits, prepMisses, prepResets, prepStale, patternExpands, windowEvals atomic.Int64

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
// cache key is tenant-prefixed and carries a stamp of that tenant's own
// catalog: one tenant's Replace moves only its own stamps, leaving every
// other tenant's warm entries addressable. The prefix is combined with
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
		db: db, chron: chron, cache: map[string]*Entry{}, dropped: map[string]uint64{},
		mat:   matcache.Shared(),
		scope: fmt.Sprintf("%s#%d|%v", scope, scopeCounter.Add(1), chron.Epoch()),
		prep:  map[preparedKey]*Prepared{},
	}
	m.gen.Store(1)
	if err := m.reload(); err != nil {
		return nil, err
	}
	return m, nil
}

// bump advances the catalog generation and returns the new value. Callers
// hold m.mu for writing and change m.cache in the same critical section: a
// reader that sees the new generation also sees the new catalog, so nothing
// computed from the old catalog is filed under the new generation.
func (m *Manager) bump() uint64 { return m.gen.Add(1) }

// refsOf returns the catalog names statements read: every identifier in them
// but basic calendars and `today`, lower-cased. Assigned names stay
// (`{x = NOW; NOW = …; return (x);}` reads the catalog's NOW): a superset is
// sound.
func refsOf(stmts []callang.Stmt) []string {
	var refs []string
	callang.WalkStmts(stmts, func(_ callang.Stmt, x callang.Expr) {
		callang.Walk(x, func(e callang.Expr) {
			id, ok := e.(*callang.Ident)
			if !ok || callang.IsToday(id.Name) || slices.Contains(refs, id.Name) {
				return
			}
			if _, ok := chronology.LookupGranularity(id.Name); !ok {
				if name := strings.ToLower(id.Name); !slices.Contains(refs, name) {
					refs = append(refs, name)
				}
			}
		})
	})
	return refs
}

// depsLocked extends refs in place to its dependencies: the names and,
// through the derivations among them, everything those read. Callers hold
// m.mu.
func (m *Manager) depsLocked(deps []string) []string {
	for i := 0; i < len(deps); i++ {
		if e := m.cache[deps[i]]; e != nil {
			for _, r := range e.refs {
				if !slices.Contains(deps, r) {
					deps = append(deps, r)
				}
			}
		}
	}
	return deps
}

// stamps holds the stamps of a dependency list. shape and values are the
// largest shape generation and the largest Version over it, an absent name
// contributing its drop generation (0 if never defined). key is the content
// key: a hash over (name, digest or 0 if absent) in list order.
//
// A generation stamp moves exactly when a listed name is written: every write
// takes a generation larger than all earlier ones and records it on the name
// it writes, and a write that changes a list (a listed derivation redefined
// or dropped) is a write to a listed name. So values is the witness that
// nothing listed was written, while key returns when the content does.
type stamps struct{ shape, values, key uint64 }

// stampsLocked returns the stamps of deps. Callers hold m.mu.
func (m *Manager) stampsLocked(deps []string) stamps {
	var st stamps
	for _, name := range deps {
		var s, v, d uint64
		if e := m.cache[name]; e != nil {
			s, v, d = e.shape, e.Version, e.digest
		} else {
			s, v = m.dropped[name], m.dropped[name]
		}
		st.shape, st.values = max(st.shape, s), max(st.values, v)
		st.key = calendar.Mix(calendar.Mix(st.key, maphash.String(seed, name)), d)
	}
	return st
}

// stamps is stampsLocked under the catalog lock; a list with no names needs
// no lock.
func (m *Manager) stamps(deps []string) stamps {
	if len(deps) == 0 {
		return stamps{}
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stampsLocked(deps)
}

// ValuesStamp implements plan.VersionedCatalog: the content key and the
// values stamp of the named calendar and everything its derivation reads.
func (m *Manager) ValuesStamp(name string) (key, gen uint64) {
	var buf [8]string
	m.mu.RLock()
	defer m.mu.RUnlock()
	st := m.stampsLocked(m.depsLocked(append(buf[:0], strings.ToLower(name))))
	return st.key, st.values
}

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
		e.Version, e.shape = gen, gen
	}
	for name := range m.cache {
		if cache[name] == nil {
			m.dropped[name] = gen
		}
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
		e.script, e.refs = s, refsOf(s.Stmts)
	}
	e.digest = digestOf(e)
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
	if _, ok := chronology.LookupGranularity(name); ok {
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
// runs once per shape of what the source reads (see Prepared); the result is
// shared.
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
	e, ok := m.Lookup(name)
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
	// Row and served entry change in one (serialized) transaction that
	// re-reads the entry: the last replace to commit wins both.
	tab, _ := m.db.Table(TableName)
	if err := m.db.RunTxn(func(tx *store.Txn) error {
		e, ok := m.Lookup(name)
		if !ok || e.Values == nil {
			return fmt.Errorf("caldb: no stored calendar %q", name)
		}
		rids, err := tab.LookupEq("name", store.NewText(e.Name))
		if err != nil || len(rids) == 0 {
			return fmt.Errorf("caldb: catalog row for %q missing", name)
		}
		row, _ := tab.Get(rids[0])
		newRow := row.Clone()
		newRow[5] = store.NewCalendar(values)
		newRow[4] = store.NewText(values.Granularity().String())
		if err := tx.Replace(TableName, rids[0], newRow); err != nil {
			return err
		}
		m.mu.Lock()
		upd := *e
		upd.Values = values
		upd.Version, upd.digest = m.bump(), digestOf(&upd)
		if g := values.Granularity(); g != upd.Gran {
			upd.Gran, upd.shape = g, upd.Version
		}
		m.cache[strings.ToLower(name)] = &upd
		m.mu.Unlock()
		return nil
	}); err != nil {
		return err
	}
	for dep, warnings := range revetted {
		m.refreshWarnings(dep, warnings)
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

// revetDependents vets every derived calendar referencing name (through the
// refs each entry keeps) as if name had granularity g, returning each
// dependent's fresh warning set, or an error if any dependent stops vetting
// clean.
func (m *Manager) revetDependents(name string, g chronology.Granularity) (map[string][]string, error) {
	var deps []*Entry
	key := strings.ToLower(name)
	m.mu.RLock() // a snapshot: the analysis below re-enters m.mu
	for _, e := range m.cache {
		if slices.Contains(e.refs, key) {
			deps = append(deps, e)
		}
	}
	m.mu.RUnlock()
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
// catalog row. Nothing derived reads the warnings, so no generation moves.
func (m *Manager) refreshWarnings(name string, warnings []string) {
	m.mu.Lock()
	e, ok := m.cache[strings.ToLower(name)]
	if ok {
		upd := *e
		upd.Warnings = warnings
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

// Drop removes a calendar definition. Like ReplaceStored, it deletes the row
// and the served entry in one transaction.
func (m *Manager) Drop(name string) error {
	tab, _ := m.db.Table(TableName)
	if err := m.db.RunTxn(func(tx *store.Txn) error {
		e, ok := m.Lookup(name)
		if !ok {
			return fmt.Errorf("caldb: calendar %q %w", name, ErrNotDefined)
		}
		rids, err := tab.LookupEq("name", store.NewText(e.Name))
		if err != nil {
			return err
		}
		for _, rid := range rids {
			if err := tx.Delete(TableName, rid); err != nil {
				return err
			}
		}
		key := strings.ToLower(name)
		m.mu.Lock()
		delete(m.cache, key)
		m.dropped[key] = m.bump()
		m.mu.Unlock()
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
	if e.script != nil {
		e.refs = refsOf(e.script.Stmts)
	}
	e.digest = digestOf(e)
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
		key := strings.ToLower(e.Name)
		m.mu.Lock()
		e.Version = m.bump()
		e.shape = e.Version
		m.cache[key] = e
		delete(m.dropped, key) // the entry's generation is newer
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
	if g, ok := chronology.LookupGranularity(name); ok {
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
// value can change between evaluations of one catalog state, because its
// derivation — directly or through referenced calendars — reads `today` or
// waits on the clock. Volatile calendars are never served from the shared
// materialization cache.
func (m *Manager) VolatileOf(name string) bool {
	return callang.DerivedClockRead(name, m, map[string]bool{})
}

// exprVolatile reports whether an expression's value can change between
// evaluations of one catalog state (it reads `today`, directly or via a
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
// and versioned by the content key of the source's dependencies, so a write
// re-keys exactly the results that read the written name, and content written
// back finds its results again. A result is filed only if the values stamp
// read with the key still holds after the evaluation: no name it read was
// written meanwhile. Volatile expressions (reading `today`) and environments
// with any optimization ablated bypass the cache so results and benchmarks
// stay honest.
func (m *Manager) EvalExprEnv(env *plan.Env, src string, from, to chronology.Civil) (*calendar.Calendar, error) {
	p, st := m.prepared("", src)
	return m.evalPrepared(env, p, st, from, to)
}

// EvalPrepared is EvalExpr for a caller holding p = Prepared("", src): it
// looks p up again only when a write has staled it.
func (m *Manager) EvalPrepared(p *Prepared, src string, from, to chronology.Civil) (*calendar.Calendar, error) {
	if st := m.stamps(p.deps); st.shape == p.shape {
		return m.evalPrepared(m.Env(), p, st, from, to)
	}
	return m.EvalExpr(src, from, to)
}

func (m *Manager) evalPrepared(env *plan.Env, p *Prepared, st stamps, from, to chronology.Civil) (*calendar.Calendar, error) {
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
	key := matcache.Key{Scope: env.MatScope, ID: l.cacheID, Version: st.key, Gran: l.Gran}
	if c, ok := env.Mat.Get(key, win); ok {
		return c, nil
	}
	// Fly the whole-expression materialization: when a tenant Replace moves
	// the content key, every concurrent client of a popular expression misses
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
	}, func() bool { return m.stamps(p.deps).values == st.values })
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
