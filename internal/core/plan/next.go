// next.go implements the definition of "when does this calendar fire next?":
// evaluate the expression over the full horizon window from the query and
// scan for the first start after it — the seed nextTrigger path. It answers
// every shape: caloperate grouping, order-1 selections, before/<= foreach,
// opaque derived calendars, interval-valued or lifespan-bounded stored
// calendars, `today`. caldb.Prepared.NextAfter answers the expressions whose
// pattern also answers /expand by arithmetic instead — business days less
// HOLIDAYS among them — clipped at the same horizon window (HorizonWindow),
// and every other one with a scheduler built for the query; this scheduler
// is the oracle the arithmetic is tested against.
package plan

import (
	"math"

	"calsys/internal/chronology"
	"calsys/internal/core/callang"
	"calsys/internal/core/interval"
)

// DefaultHorizonDays bounds how far ahead a next-instant search looks when
// the caller does not configure a horizon (the rules engine's historical
// LookaheadDays default).
const DefaultHorizonDays = 730

// HorizonWindow is the window a next-instant query after `after` searches:
// from the civil day holding `after` through horizonDays later (≤ 0:
// DefaultHorizonDays), in ticks of gran.
func HorizonWindow(ch *chronology.Chronology, gran chronology.Granularity, after, horizonDays int64) (interval.Interval, error) {
	if horizonDays <= 0 {
		horizonDays = DefaultHorizonDays
	}
	from := ch.CivilOfDayTick(ch.TickAt(chronology.Day, after))
	return CivilWindow(ch, gran, from, from.AddDays(horizonDays))
}

// A Scheduler answers next-instant queries for one prepared expression by
// evaluating the horizon window: every NextAfter compiles and runs the plan
// over the window of its query, one probe each. It is not safe for
// concurrent use, and its horizon is its own: a caller builds one for its
// queries (NextInstant), and nothing shares one between callers.
type Scheduler struct {
	env         *Env
	prepped     callang.Expr
	gran        chronology.Granularity
	horizonDays int64
	probes      int64 // windowed evaluations performed
}

// NewScheduler builds a scheduler for a prepared expression (the output of
// Prepare). What the expression reads in the environment's catalog must stay
// fixed while its answers are used: an answer is as current as the catalog
// state its probe read.
func NewScheduler(env *Env, prepped callang.Expr, gran chronology.Granularity) *Scheduler {
	return &Scheduler{env: env, prepped: prepped, gran: gran, horizonDays: DefaultHorizonDays}
}

// Configure sets the lookahead horizon in days (≤ 0 keeps the current value).
func (s *Scheduler) Configure(horizonDays int64) {
	if horizonDays > 0 {
		s.horizonDays = horizonDays
	}
}

// Probes reports how many windowed evaluations the scheduler has run.
func (s *Scheduler) Probes() int64 { return s.probes }

// NextAfter returns the first instant (epoch seconds) at which the
// expression fires strictly after `after`, searching the configured horizon
// ahead: the minimum start strictly after `after`, and in the window's last
// unit or before, of the expression evaluated over HorizonWindow. ok is false
// when nothing starts in it.
func (s *Scheduler) NextAfter(after int64) (at int64, ok bool, err error) {
	hwin, err := HorizonWindow(s.env.Chron, s.gran, after, s.horizonDays)
	if err != nil {
		return 0, false, err
	}
	s.probes++
	p, err := Compile(s.env, s.prepped, nil, s.gran, hwin)
	if err != nil {
		return 0, false, err
	}
	cal, err := p.Exec(s.env, nil)
	if err != nil {
		return 0, false, err
	}
	// Elements the plan generated past the window's end (a stored list is
	// loaded whole) are past the horizon: the pattern's answer is clipped at
	// the same unit.
	ch := s.env.Chron
	best, ok, limit := int64(math.MaxInt64), false, ch.UnitStart(s.gran, hwin.Hi)
	for _, iv := range cal.Flatten().Intervals() {
		if at := ch.UnitStart(s.gran, iv.Lo); at > after && at <= limit && at < best {
			best, ok = at, true
		}
	}
	if !ok {
		return 0, false, nil
	}
	return best, true, nil
}

// NextInstant answers "first instant strictly after `after`" for a prepared
// expression, searching horizonDays ahead (≤ 0 uses DefaultHorizonDays).
// ok=false means no instant within the horizon: one probe of a scheduler
// built for the call.
func NextInstant(env *Env, prepped callang.Expr, gran chronology.Granularity, after int64, horizonDays int64) (int64, bool, error) {
	s := NewScheduler(env, prepped, gran)
	s.Configure(horizonDays)
	return s.NextAfter(after)
}
