package calsys

import (
	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	calvet "calsys/internal/core/callang/vet"
	"calsys/internal/core/interval"
	"calsys/internal/core/matcache"
	"calsys/internal/core/plan"
	"calsys/internal/datearith"
	"calsys/internal/faultinject"
	"calsys/internal/postquel"
	"calsys/internal/rules"
	"calsys/internal/rules/journal"
	"calsys/internal/rules/shard"
	"calsys/internal/store"
	"calsys/internal/timeseries"
)

// Re-exported core types, so users of the library never import internal
// packages directly.
type (
	// Civil is a proleptic Gregorian calendar date.
	Civil = chronology.Civil
	// Weekday numbers days Monday=1..Sunday=7, as in the paper.
	Weekday = chronology.Weekday
	// Granularity names a basic calendar (SECONDS .. CENTURY).
	Granularity = chronology.Granularity
	// Tick is a no-zero unit count from the system start date.
	Tick = chronology.Tick
	// Chronology anchors the basic calendars at a system start date.
	Chronology = chronology.Chronology

	// Interval is a closed tick span (lo,hi).
	Interval = interval.Interval
	// ListOp is one of the paper's interval operators (overlaps, during,
	// meets, <, <=).
	ListOp = interval.ListOp
	// Calendar is an order-n structured collection of intervals.
	Calendar = calendar.Calendar
	// Selection is the [x]/C selection predicate.
	Selection = calendar.Selection

	// Plan is a compiled calendar-expression evaluation plan.
	Plan = plan.Plan
	// ScriptValue is the result of a calendar script: a calendar or an
	// alert string.
	ScriptValue = plan.Value
	// EvalEnv is the evaluation environment (chronology, catalog, clock).
	EvalEnv = plan.Env

	// CalendarEntry is a decoded CALENDARS catalog tuple (Figure 1).
	CalendarEntry = caldb.Entry
	// Lifespan is a calendar's validity range in day ticks.
	Lifespan = caldb.Lifespan
	// VetDiag is one positioned diagnostic from the calvet static analyzer.
	VetDiag = calvet.Diag
	// VetDiags is a position-sorted diagnostic list.
	VetDiags = calvet.Diags
	// VetSeverity grades a vet diagnostic (warning or error).
	VetSeverity = calvet.Severity
	// CalendarEquivClass is one group of catalog definitions the symbolic
	// calculus proved to denote identical element lists.
	CalendarEquivClass = calvet.EquivClass
	// RuleMergeGroup is one group of temporal rules firing on identical
	// instants (the fleet-wide dedup diagnostic).
	RuleMergeGroup = rules.MergeGroup
	// MatCacheStats snapshots the shared materialization cache's counters.
	MatCacheStats = matcache.Stats

	// DB is the extensible database substrate.
	DB = store.DB
	// Value is a typed cell value.
	Value = store.Value
	// Row is one tuple.
	Row = store.Row
	// Schema describes a relation.
	Schema = store.Schema
	// Column is one attribute of a relation.
	Column = store.Column
	// Txn is a serializable transaction.
	Txn = store.Txn
	// Event is a database operation delivered to rules.
	Event = store.Event
	// EventOp is the operation kind (append/delete/replace/retrieve).
	EventOp = store.EventOp
	// UserFunc is a user-defined database function.
	UserFunc = store.UserFunc

	// RuleAction is what a rule does when it triggers.
	RuleAction = rules.Action
	// FuncAction wraps a Go callback as a rule action.
	FuncAction = rules.FuncAction
	// TemporalRuleDef is one rule of a batch define (System.OnCalendars).
	TemporalRuleDef = rules.TemporalRuleDef
	// RuleEngine owns RULE-INFO / RULE-TIME and dispatches rules.
	RuleEngine = rules.Engine
	// DBCron is the daemon of Figure 4.
	DBCron = rules.DBCron
	// Firing is one scheduled rule activation.
	Firing = rules.Firing
	// Clock supplies the current instant in epoch seconds.
	Clock = rules.Clock
	// VirtualClock is a manually advanced clock.
	VirtualClock = rules.VirtualClock

	// CronOptions configures a durable DBCRON daemon.
	CronOptions = rules.CronOptions
	// CronStats is the daemon's full counter snapshot.
	CronStats = rules.CronStats
	// RetryPolicy bounds retry with exponential backoff for failing actions.
	RetryPolicy = rules.RetryPolicy
	// CatchUpPolicy selects crash-recovery semantics for missed triggers.
	CatchUpPolicy = rules.CatchUpPolicy
	// RecoveryReport summarizes a crash recovery pass.
	RecoveryReport = rules.RecoveryReport
	// DeadLetter is one permanently failed firing from RULE-DEADLETTER.
	DeadLetter = rules.DeadLetter
	// FiringJournal is the write-ahead firing journal backing crash recovery.
	FiringJournal = journal.Journal
	// JournalOption configures OpenFiringJournal.
	JournalOption = journal.Option
	// FaultInjector is the deterministic fault-injection harness (tests).
	FaultInjector = faultinject.Injector

	// ShardCoordinator is the lease table of a sharded DBCRON fleet.
	ShardCoordinator = shard.Coordinator
	// ShardWorker is one dbcrond process of a sharded fleet.
	ShardWorker = shard.Worker
	// ShardWorkerOptions configures a fleet worker's per-shard daemons.
	ShardWorkerOptions = shard.Options
	// ShardWorkerStats is a fleet worker's lifetime counter snapshot.
	ShardWorkerStats = shard.WorkerStats
	// ShardLease is one shard's epoch-fenced ownership record.
	ShardLease = shard.Lease

	// QueryEngine executes Postquel statements.
	QueryEngine = postquel.Engine
	// QueryResult is the outcome of one statement.
	QueryResult = postquel.Result

	// DayCount is a day-count convention (30/360, actual/365, ...).
	DayCount = datearith.Convention
	// Bond is a fixed-coupon bond priced under a day-count convention.
	Bond = datearith.Bond

	// RegularSeries is a time series whose valid time is generated from a
	// calendar expression.
	RegularSeries = timeseries.Regular
	// Observation is one (span, value) pair of a regular series.
	Observation = timeseries.Obs
	// SeriesPattern is a predicate over consecutive series values.
	SeriesPattern = timeseries.Pattern
)

// Basic granularities, finest to coarsest.
const (
	Second  = chronology.Second
	Minute  = chronology.Minute
	Hour    = chronology.Hour
	Day     = chronology.Day
	Week    = chronology.Week
	Month   = chronology.Month
	Year    = chronology.Year
	Decade  = chronology.Decade
	Century = chronology.Century
)

// Weekdays (Monday = 1, per the paper).
const (
	Monday    = chronology.Monday
	Tuesday   = chronology.Tuesday
	Wednesday = chronology.Wednesday
	Thursday  = chronology.Thursday
	Friday    = chronology.Friday
	Saturday  = chronology.Saturday
	Sunday    = chronology.Sunday
)

// The five listops of §3.1.
const (
	Overlaps     = interval.Overlaps
	During       = interval.During
	Meets        = interval.Meets
	Before       = interval.Before
	BeforeEquals = interval.BeforeEquals
)

// Column types of the extensible store.
const (
	TInt      = store.TInt
	TFloat    = store.TFloat
	TText     = store.TText
	TBool     = store.TBool
	TDate     = store.TDate
	TInterval = store.TInterval
	TCalendar = store.TCalendar
)

// Database event kinds.
const (
	EvAppend   = store.EvAppend
	EvDelete   = store.EvDelete
	EvReplace  = store.EvReplace
	EvRetrieve = store.EvRetrieve
)

// GranAuto asks DefineCalendar to infer granularity from the derivation.
const GranAuto = caldb.GranAuto

// Vet diagnostic severities.
const (
	VetWarning = calvet.Warning
	VetError   = calvet.Error
)

// MaxDayTick stands in for an unbounded lifespan upper bound.
const MaxDayTick = caldb.MaxDayTick

// SecondsPerDay is the length of a civil day.
const SecondsPerDay = chronology.SecondsPerDay

// Day-count conventions for user-defined date arithmetic (§1).
var (
	ActualActual      DayCount = datearith.ActualActual{}
	Actual365         DayCount = datearith.Actual365{}
	Actual360         DayCount = datearith.Actual360{}
	Thirty360         DayCount = datearith.Thirty360{}
	Thirty360European DayCount = datearith.Thirty360European{}
)

// Series patterns from the paper's future-work section.
var (
	PatternIncrease   = timeseries.Increase
	PatternDecrease   = timeseries.Decrease
	PatternTwoDayRise = timeseries.TwoDayRise
)

// Aggregation functions for RegularSeries.AggregateTo.
var (
	SeriesMean = timeseries.Mean
	SeriesSum  = timeseries.Sum
	SeriesLast = timeseries.Last
	SeriesMax  = timeseries.Max
)

// Value constructors.
var (
	NewInt      = store.NewInt
	NewFloat    = store.NewFloat
	NewText     = store.NewText
	NewBool     = store.NewBool
	NewDate     = store.NewDate
	NewInterval = store.NewInterval
	NewCalendar = store.NewCalendar
	Null        = store.Null
)

// Interval and selection constructors.
var (
	NewIval     = interval.New
	MustIval    = interval.Must
	SelectIndex = calendar.SelectIndex
	SelectLast  = calendar.SelectLast
	SelectList  = calendar.SelectList
	SelectRange = calendar.SelectRange
)

// Calendar constructors and algebra entry points.
var (
	CalendarFromIntervals = calendar.FromIntervals
	CalendarFromPoints    = calendar.FromPoints
	Foreach               = calendar.Foreach
	ForeachInterval       = calendar.ForeachInterval
	SelectFrom            = calendar.Select
	CalUnion              = calendar.Union
	CalDiff               = calendar.Diff
	CalIntersect          = calendar.Intersect
	Generate              = calendar.Generate
	GenerateCivil         = calendar.GenerateCivil
	Caloperate            = calendar.Caloperate
)

// Chronology and parsing helpers.
var (
	ParseDate        = chronology.ParseCivil
	ParseGranularity = chronology.ParseGranularity
	DayCountByName   = datearith.ByName
	AddMonths        = datearith.AddMonths
	CouponSchedule   = datearith.CouponSchedule
	NewVirtualClock  = rules.NewVirtualClock
)

// Catch-up policies for crash recovery.
const (
	FireAll    = rules.FireAll
	FireLast   = rules.FireLast
	SkipMissed = rules.SkipMissed
)

// Durability constructors and helpers.
var (
	// OpenFiringJournal opens (or creates) a write-ahead firing journal,
	// replaying any prior records.
	OpenFiringJournal = journal.Open
	// JournalSync toggles fsync-on-commit (on by default).
	JournalSync = journal.WithSync
	// DefaultRetryPolicy is the retry schedule durable daemons adopt when
	// none is configured.
	DefaultRetryPolicy = rules.DefaultRetryPolicy
	// ParseCatchUpPolicy resolves "fireall" | "firelast" | "skip".
	ParseCatchUpPolicy = rules.ParseCatchUpPolicy
	// NewFaultInjector creates a fault-injection harness (its argument is ignored).
	NewFaultInjector = faultinject.New
	// IsInjectedCrash reports whether an error is an injected kill point.
	IsInjectedCrash = faultinject.IsCrash

	// NewShardCoordinator creates the lease table for a sharded fleet.
	NewShardCoordinator = shard.NewCoordinator
	// NewShardWorker creates one fleet worker over a shared rule engine.
	NewShardWorker = shard.New
	// ShardOf maps a rule name to its shard (FNV-1a over the lowercased
	// name), the partition every fleet worker agrees on.
	ShardOf = rules.ShardOf
	// ErrFiringFenced marks a firing aborted by the lease fence: the
	// worker's epoch was stale, so the commit was refused.
	ErrFiringFenced = rules.ErrFenced
)

// Fault-injection sites: the daemon sites arm through CronOptions.Faults,
// the engine site through RuleEngine.SetFaults.
const (
	// SiteCronProbe kills the daemon at the top of a RULE-TIME probe.
	SiteCronProbe = rules.SiteProbe
	// SiteCronAck kills the daemon after a firing commits but before its
	// journal ack — recovery must deduplicate, not re-execute.
	SiteCronAck = rules.SiteAck
	// SiteEngineFire kills the daemon inside the firing transaction, before
	// the action runs — the firing rolls back and recovery re-drives it.
	SiteEngineFire = rules.SiteFire
)
