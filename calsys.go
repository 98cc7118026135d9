// Package calsys is a Go implementation of the calendar and temporal-rule
// system of Chandra, Segev and Stonebraker, "Implementing Calendars and
// Temporal Rules in Next Generation Databases" (ICDE 1994).
//
// It provides, as one assembled system:
//
//   - the calendar algebra over collection intervals (foreach, selection,
//     generate, caloperate) of §3.1-§3.2;
//   - the calendar expression language, parser, factorization optimizer and
//     windowed evaluation plans of §3.3-§3.4;
//   - an extensible relational store (the POSTGRES stand-in) with the
//     CALENDARS catalog of Figure 1;
//   - a Postquel-flavored query language with calendar-valued "on" clauses;
//   - time-based rules with RULE-INFO / RULE-TIME and the DBCRON daemon of
//     Figure 4;
//   - user-defined date arithmetic (the 30/360 bond calendar of §1) and
//     regular time series with generated valid time.
package calsys

import (
	"fmt"
	"io"
	"os"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	calvet "calsys/internal/core/callang/vet"
	"calsys/internal/core/plan"
	"calsys/internal/datearith"
	"calsys/internal/postquel"
	"calsys/internal/rules"
	"calsys/internal/store"
	"calsys/internal/timeseries"
)

// DefaultEpoch is the paper's system start date, January 1 1987.
var DefaultEpoch = chronology.DefaultEpoch

// System assembles the full stack: store, calendar catalog, rule engine,
// query engine, and clock.
type System struct {
	db    *store.DB
	chron *chronology.Chronology
	cal   *caldb.Manager
	rules *rules.Engine
	query *postquel.Engine
	clock Clock
}

// Option configures Open.
type Option func(*options)

type options struct {
	epoch Civil
	clock Clock
	scope string
}

// WithEpoch anchors the chronology at a system start date other than
// 1987-01-01.
func WithEpoch(epoch Civil) Option {
	return func(o *options) { o.epoch = epoch }
}

// WithClock installs the clock used by now(), `today` and temporal rules.
// The default is a virtual clock starting at the epoch.
func WithClock(c Clock) Option {
	return func(o *options) { o.clock = c }
}

// WithCatalogScope prefixes this system's entries in the process-wide
// materialization cache (e.g. "tenant/<name>"). Systems with different
// scopes share the cache's byte budget but never each other's entries, and
// each keeps its own catalog generation counter — the serving layer's
// tenant-isolation mechanism.
func WithCatalogScope(scope string) Option {
	return func(o *options) { o.scope = scope }
}

// Open assembles a fresh system.
func Open(opts ...Option) (*System, error) {
	o := options{epoch: DefaultEpoch}
	for _, fn := range opts {
		fn(&o)
	}
	chron, err := chronology.New(o.epoch)
	if err != nil {
		return nil, err
	}
	if o.clock == nil {
		o.clock = rules.NewVirtualClock(0)
	}
	db := store.NewDB()
	if err := datearith.Register(db); err != nil {
		return nil, err
	}
	cal, err := caldb.NewScoped(db, chron, o.scope)
	if err != nil {
		return nil, err
	}
	re, err := rules.NewEngine(cal)
	if err != nil {
		return nil, err
	}
	q := postquel.NewEngine(cal, re, o.clock)
	return &System{db: db, chron: chron, cal: cal, rules: re, query: q, clock: o.clock}, nil
}

// MustOpen is Open, panicking on error (examples and tests).
func MustOpen(opts ...Option) *System {
	s, err := Open(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// DB exposes the extensible store.
func (s *System) DB() *DB { return s.db }

// Chron exposes the chronology.
func (s *System) Chron() *Chronology { return s.chron }

// Rules exposes the rule engine.
func (s *System) Rules() *RuleEngine { return s.rules }

// Query exposes the Postquel engine.
func (s *System) Query() *QueryEngine { return s.query }

// Clock returns the system clock.
func (s *System) Clock() Clock { return s.clock }

// Now returns the current instant in epoch seconds.
func (s *System) Now() int64 { return s.clock.Now() }

// Today returns the current civil date under the system clock.
func (s *System) Today() Civil { return s.chron.CivilOf(s.clock.Now()) }

// MatStats snapshots the shared materialization cache's counters
// (hits/misses/evictions/bytes; process-wide, aggregated across catalogs).
func (s *System) MatStats() MatCacheStats { return s.cal.MatStats() }

// --- queries ------------------------------------------------------------

// Exec runs a batch of Postquel statements.
func (s *System) Exec(src string) ([]QueryResult, error) { return s.query.Exec(src) }

// ExecOne runs a single Postquel statement.
func (s *System) ExecOne(src string) (QueryResult, error) { return s.query.ExecOne(src) }

// --- calendars ----------------------------------------------------------

// UnboundedLifespan is a lifespan open at the upper end, starting at the
// epoch day.
func UnboundedLifespan() Lifespan { return Lifespan{Lo: 1, Hi: MaxDayTick} }

// DefineCalendar records a derived calendar in the CALENDARS catalog. The
// derivation may be a single expression or a full script; gran is usually
// GranAuto.
func (s *System) DefineCalendar(name, derivation string, gran Granularity) error {
	return s.cal.DefineDerived(name, derivation, UnboundedLifespan(), gran)
}

// DefineStoredCalendar records a calendar with explicit values, such as
// HOLIDAYS.
func (s *System) DefineStoredCalendar(name string, values *Calendar) error {
	return s.cal.DefineStored(name, values, UnboundedLifespan())
}

// ReplaceStoredCalendar updates a stored calendar's values.
func (s *System) ReplaceStoredCalendar(name string, values *Calendar) error {
	return s.cal.ReplaceStored(name, values)
}

// DropCalendar removes a calendar definition.
func (s *System) DropCalendar(name string) error { return s.cal.Drop(name) }

// CalendarEntryOf returns a calendar's catalog tuple.
func (s *System) CalendarEntryOf(name string) (*CalendarEntry, bool) { return s.cal.Lookup(name) }

// CalendarFigureRow renders a calendar's catalog tuple in the layout of
// Figure 1.
func (s *System) CalendarFigureRow(name string) (string, error) { return s.cal.FigureRow(name) }

// VetCalendar statically analyzes a derivation source as if it were being
// defined under name (empty for anonymous expressions) without touching the
// catalog, returning calvet's positioned CV001-CV009 diagnostics.
func (s *System) VetCalendar(name, derivation string) VetDiags { return s.cal.Vet(name, derivation) }

// VetDefinedCalendar re-runs the static analyzer over an already-defined
// calendar's derivation script.
func (s *System) VetDefinedCalendar(name string) (VetDiags, error) { return s.cal.VetDefined(name) }

// VetCatalog runs the fleet-level equivalence analysis over the whole
// calendar catalog: every symbolically-lowerable definition is canonicalized
// and definitions denoting identical element lists are grouped as merge
// candidates.
func (s *System) VetCatalog() []CalendarEquivClass {
	return calvet.AnalyzeCatalog(s.cal, calvet.Options{Chron: s.chron})
}

// VetRuleFleet groups temporal rules that provably fire on identical
// instants — candidates for merging into one rule.
func (s *System) VetRuleFleet() []RuleMergeGroup { return s.rules.VetFleet() }

// EvalCalendar parses and evaluates a calendar expression over a civil
// window.
func (s *System) EvalCalendar(src string, from, to Civil) (*Calendar, error) {
	return s.cal.EvalExpr(src, from, to)
}

// RunCalendarScript parses and runs a calendar script (with if/while) over
// a civil window; the environment exposes the system clock as `today`.
func (s *System) RunCalendarScript(src string, from, to Civil) (ScriptValue, error) {
	return s.RunCalendarScriptWithWait(src, from, to, nil)
}

// RunCalendarScriptWithWait is RunCalendarScript with a wait hook driving
// the paper's "do nothing" while-loops: wait is called once per probe of a
// still-true empty-bodied loop condition, and should advance the clock.
func (s *System) RunCalendarScriptWithWait(src string, from, to Civil, wait func() error) (ScriptValue, error) {
	script, err := callang.ParseScript(src)
	if err != nil {
		return ScriptValue{}, err
	}
	env := s.cal.Env()
	env.Now = s.clock.Now
	env.Wait = wait
	return plan.RunScript(env, script, from, to)
}

// WindowCosts compiles an expression twice — with the §3.4 selection
// look-ahead on and off — and returns both plans' generation costs (total
// ticks generated), the quantity the optimization reduces.
func (s *System) WindowCosts(src string, from, to Civil) (windowed, unwindowed int64, err error) {
	e, err := callang.ParseExpr(src)
	if err != nil {
		return 0, 0, err
	}
	env := s.cal.Env()
	env.Now = s.clock.Now
	pOn, err := plan.CompileExpr(env, e, from, to)
	if err != nil {
		return 0, 0, err
	}
	envOff := *env
	envOff.DisableWindowInference = true
	pOff, err := plan.CompileExpr(&envOff, e, from, to)
	if err != nil {
		return 0, 0, err
	}
	return pOn.GenerateCost(), pOff.GenerateCost(), nil
}

// CompileCalendar parses, factorizes and compiles an expression, returning
// the plan (for inspection; Figure 1's eval-plan column).
func (s *System) CompileCalendar(src string, from, to Civil) (*Plan, error) {
	e, err := callang.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	env := s.cal.Env()
	env.Now = s.clock.Now
	return plan.CompileExpr(env, e, from, to)
}

// ParseTree renders the parse tree of a calendar expression before and
// after factorization (Figures 2 and 3).
func (s *System) ParseTree(src string) (initial, factorized string, err error) {
	e, err := callang.ParseExpr(src)
	if err != nil {
		return "", "", err
	}
	inlined, err := callang.Inline(e, s.cal)
	if err != nil {
		return "", "", err
	}
	factored := callang.Factorize(inlined, s.cal)
	return callang.TreeString(inlined), callang.TreeString(factored), nil
}

// --- rules ---------------------------------------------------------------

// OnCalendar declares a temporal rule "On <calendar expression> do action"
// with a Go action.
func (s *System) OnCalendar(name, calExpr string, action func(tx *Txn, firedAt int64) error) error {
	return s.rules.DefineTemporalRule(name, calExpr, FuncAction{
		Name: name,
		Fn: func(tx *Txn, _ *Event, at int64) error {
			return action(tx, at)
		},
	}, s.clock.Now())
}

// OnCalendars declares a batch of temporal rules in one RULE-TIME
// transaction, preparing each distinct calendar expression once — the fast
// path for defining large rule fleets over a shared set of expressions.
func (s *System) OnCalendars(defs []TemporalRuleDef) error {
	return s.rules.DefineTemporalRules(s.clock.Now(), defs)
}

// OnEvent declares an event rule with a Go condition and action.
func (s *System) OnEvent(name string, op EventOp, table string,
	cond func(tx *Txn, ev Event) (bool, error),
	action func(tx *Txn, ev *Event) error) error {
	return s.rules.DefineEventRule(name, op, table, cond, FuncAction{
		Name: name,
		Fn: func(tx *Txn, ev *Event, _ int64) error {
			return action(tx, ev)
		},
	})
}

// DropRule removes a rule of either kind.
func (s *System) DropRule(name string) error { return s.rules.DropRule(name) }

// StartDBCron creates the DBCRON daemon with probe period T seconds,
// anchored at the current clock instant. Drive it with AdvanceTo (virtual
// time) or Run (wall clock).
func (s *System) StartDBCron(T int64) (*DBCron, error) {
	return rules.NewDBCron(s.rules, T, s.clock.Now())
}

// StartDurableDBCron creates a durable DBCRON daemon: firings are recorded
// in the configured journal, failing actions retry with backoff until the
// budget moves them to RULE-DEADLETTER, and Recover replays the journal
// after a crash.
func (s *System) StartDurableDBCron(T int64, opts CronOptions) (*DBCron, error) {
	return rules.NewDBCronWith(s.rules, T, s.clock.Now(), opts)
}

// ReattachRule re-binds a Go action to a temporal rule restored from a
// snapshot, preserving its persisted trigger — an overdue trigger stays
// overdue, so crash recovery can catch it up.
func (s *System) ReattachRule(name string, action func(tx *Txn, firedAt int64) error) error {
	return s.rules.ReattachAction(name, FuncAction{
		Name: name,
		Fn: func(tx *Txn, _ *Event, at int64) error {
			return action(tx, at)
		},
	})
}

// DeadLetters lists RULE-DEADLETTER: firings that exhausted their retry
// budget, with the instant, attempt count and last error.
func (s *System) DeadLetters() ([]DeadLetter, error) { return s.rules.DeadLetters() }

// --- time series ----------------------------------------------------------

// NewRegularSeries creates a regular time series whose valid time is
// generated from calExpr, starting at from.
func (s *System) NewRegularSeries(name, calExpr string, from Civil) (*RegularSeries, error) {
	return timeseries.NewRegular(s.cal, name, calExpr, from)
}

// --- persistence -----------------------------------------------------------

// SaveSnapshot writes the whole database — user tables, the CALENDARS
// catalog and the rule catalogs — as a consistent text snapshot.
func (s *System) SaveSnapshot(w io.Writer) error { return s.db.Save(w) }

// OpenSnapshot assembles a system from a snapshot written by SaveSnapshot.
// Calendars and data are fully restored; rules reappear in RULE-INFO but
// their actions (which are code) must be reattached by redefining each rule
// — OrphanedRules lists them.
func OpenSnapshot(r io.Reader, opts ...Option) (*System, error) {
	o := options{epoch: DefaultEpoch}
	for _, fn := range opts {
		fn(&o)
	}
	chron, err := chronology.New(o.epoch)
	if err != nil {
		return nil, err
	}
	if o.clock == nil {
		o.clock = rules.NewVirtualClock(0)
	}
	db := store.NewDB()
	if err := datearith.Register(db); err != nil {
		return nil, err
	}
	if err := db.Load(r); err != nil {
		return nil, err
	}
	cal, err := caldb.NewScoped(db, chron, o.scope)
	if err != nil {
		return nil, err
	}
	re, err := rules.NewEngine(cal)
	if err != nil {
		return nil, err
	}
	q := postquel.NewEngine(cal, re, o.clock)
	return &System{db: db, chron: chron, cal: cal, rules: re, query: q, clock: o.clock}, nil
}

// OrphanedRules lists rules restored from a snapshot that still need their
// actions reattached.
func (s *System) OrphanedRules() []string { return s.rules.Orphans() }

// SaveSnapshotFile writes the snapshot to path atomically (temp file, fsync,
// rename): a crash mid-save leaves the previous snapshot intact.
func (s *System) SaveSnapshotFile(path string) error { return s.db.SaveFile(path, nil) }

// OpenSnapshotFile assembles a system from a snapshot file written by
// SaveSnapshotFile.
func OpenSnapshotFile(path string, opts ...Option) (*System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return OpenSnapshot(f, opts...)
}

// --- conveniences ----------------------------------------------------------

// Date builds a Civil date, validating it.
func Date(y, m, d int) (Civil, error) {
	c := Civil{Year: y, Month: m, Day: d}
	if !c.Valid() {
		return Civil{}, fmt.Errorf("calsys: invalid date %04d-%02d-%02d", y, m, d)
	}
	return c, nil
}

// MustDate is Date for literals known valid.
func MustDate(y, m, d int) Civil {
	c, err := Date(y, m, d)
	if err != nil {
		panic(err)
	}
	return c
}

// PointCalendar builds an order-1 calendar of single-tick intervals.
func PointCalendar(gran Granularity, ticks ...Tick) (*Calendar, error) {
	return calendar.FromPoints(gran, ticks)
}

// DayTickOf returns the day tick of a civil date under the system's epoch.
func (s *System) DayTickOf(d Civil) Tick { return s.chron.DayTick(d) }

// CivilOfDayTick inverts DayTickOf.
func (s *System) CivilOfDayTick(t Tick) Civil { return s.chron.CivilOfDayTick(t) }

// SecondsOf returns the epoch second of midnight on a civil date.
func (s *System) SecondsOf(d Civil) int64 { return s.chron.EpochSecondsOf(d) }
