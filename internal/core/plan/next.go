// next.go implements the definition of "when does this calendar fire next?":
// evaluate the expression over the full horizon window from the query and
// scan for the first start after it — the seed nextTrigger path. It answers
// every shape: caloperate grouping, order-1 selections, before/<= foreach,
// opaque derived calendars, interval-valued or lifespan-bounded stored
// calendars, `today`. caldb.Prepared.NextAfter answers the expressions whose
// pattern also answers /expand by arithmetic instead — business days less
// HOLIDAYS among them — clipped at the same horizon window (HorizonWindow),
// and this scheduler is the oracle it is tested against.
package plan

import (
	"math"
	"sync"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
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
// evaluating the horizon window. It is safe for concurrent use; the rules
// engine shares one Scheduler among all rules over the same prepared plan
// (shared-plan fan-out), so a query is paid once per plan, not once per rule.
type Scheduler struct {
	env     *Env
	prepped callang.Expr
	gran    chronology.Granularity

	mu          sync.Mutex
	horizonDays int64
	probes      int64 // windowed evaluations performed

	// plan is the last plan compiled, over planWin.
	plan    *Plan
	planWin interval.Interval
}

// NewScheduler builds a scheduler for a prepared expression (the output of
// Prepare). What the expression reads in the environment's catalog must stay
// fixed for the scheduler's lifetime; caldb interns schedulers by the values
// stamp of those names and builds a new one when it moves.
func NewScheduler(env *Env, prepped callang.Expr, gran chronology.Granularity) *Scheduler {
	return &Scheduler{env: env, prepped: prepped, gran: gran, horizonDays: DefaultHorizonDays}
}

// Configure sets the lookahead horizon in days (≤ 0 keeps the current value).
func (s *Scheduler) Configure(horizonDays int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if horizonDays > 0 {
		s.horizonDays = horizonDays
	}
}

// PlanAt renders the eval plan for the RULE-INFO catalog: the plan last
// compiled, or, when there is none yet, the plan over the horizon window of
// a query after `after`.
func (s *Scheduler) PlanAt(after int64) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan == nil {
		hwin, err := HorizonWindow(s.env.Chron, s.gran, after, s.horizonDays)
		if err != nil {
			return "", err
		}
		if _, err := s.compile(hwin); err != nil {
			return "", err
		}
	}
	return s.plan.String(), nil
}

// Probes reports how many windowed evaluations the scheduler has run.
func (s *Scheduler) Probes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.probes
}

// NextAfter returns the first instant (epoch seconds) at which the
// expression fires strictly after `after`, searching the configured horizon
// ahead: the minimum start strictly after `after`, and in the window's last
// unit or before, of the expression evaluated over HorizonWindow. ok is false
// when nothing starts in it.
func (s *Scheduler) NextAfter(after int64) (at int64, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hwin, err := HorizonWindow(s.env.Chron, s.gran, after, s.horizonDays)
	if err != nil {
		return 0, false, err
	}
	cal, err := s.eval(hwin)
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

func (s *Scheduler) eval(win interval.Interval) (*calendar.Calendar, error) {
	s.probes++
	p, err := s.compile(win)
	if err != nil {
		return nil, err
	}
	return p.Exec(s.env, nil)
}

// compile returns the plan of the expression over win: the last one compiled
// when it was compiled over the same window, else a new one, which becomes
// the last.
func (s *Scheduler) compile(win interval.Interval) (*Plan, error) {
	if s.plan != nil && s.planWin == win {
		return s.plan, nil
	}
	p, err := Compile(s.env, s.prepped, nil, s.gran, win)
	if err != nil {
		return nil, err
	}
	s.plan, s.planWin = p, win
	return p, nil
}

// NextInstant answers "first instant strictly after `after`" for a prepared
// expression, searching horizonDays ahead (≤ 0 uses DefaultHorizonDays).
// ok=false means no instant within the horizon. This is the one-shot form
// of Scheduler for callers without an instance to amortize into.
func NextInstant(env *Env, prepped callang.Expr, gran chronology.Granularity, after int64, horizonDays int64) (int64, bool, error) {
	s := NewScheduler(env, prepped, gran)
	s.Configure(horizonDays)
	return s.NextAfter(after)
}
