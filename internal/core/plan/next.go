// next.go implements the next-instant kernel: "when does this calendar fire
// next?" answered without materializing the lookahead window whenever the
// expression's shape allows it.
//
// Two rungs:
//
//  1. Pattern. A prepared expression the symbolic calculus lowers — a basic
//     calendar, or a composition of them — maps to its exact
//     periodic.Pattern; NextAfter answers in O(log spans) arithmetic for any
//     instant, forever. One it proves empty is dormant: never, at no cost.
//  2. Full window. Everything else — anything over a stored calendar such
//     as HOLIDAYS, caloperate grouping, order-1 selections, before/<=
//     foreach, opaque derived calendars, `today` — evaluates the full
//     horizon window exactly like the seed nextTrigger path and scans for
//     the first start after the query. This rung is the definition the
//     pattern rung is tested against, and Configure's forceWindowed switch
//     sends every query to it.
package plan

import (
	"math"
	"sync"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/callang/symbolic"
	"calsys/internal/core/interval"
	"calsys/internal/core/periodic"
)

// DefaultHorizonDays bounds how far ahead a next-instant search looks when
// the caller does not configure a horizon (the rules engine's historical
// LookaheadDays default).
const DefaultHorizonDays = 730

// A Scheduler answers next-instant queries for one prepared expression. It
// is safe for concurrent use; the rules engine shares one Scheduler among
// all rules over the same prepared plan (shared-plan fan-out), so a query is
// paid once per plan, not once per rule.
type Scheduler struct {
	env     *Env
	prepped callang.Expr
	gran    chronology.Granularity

	mu            sync.Mutex
	horizonDays   int64
	forceWindowed bool
	probes        int64 // windowed evaluations performed

	// plan is the last plan compiled, over planWin; PlanString renders it.
	plan    *Plan
	planWin interval.Interval

	// exact is the infinite-pattern fast path: the symbolic calculus lowered
	// the prepared expression (a basic calendar, or a composition of them)
	// to closed form, answered by arithmetic with no evaluation ever.
	exact *periodic.Pattern

	// dormant marks an expression the symbolic calculus proved empty on
	// every window: NextAfter answers ok=false without ever evaluating.
	dormant bool
}

// NewScheduler builds a scheduler for a prepared expression (the output of
// Prepare). What the expression reads in the environment's catalog must stay
// fixed for the scheduler's lifetime; caldb interns schedulers by the values
// stamp of those names and builds a new one when it moves.
func NewScheduler(env *Env, prepped callang.Expr, gran chronology.Granularity) *Scheduler {
	s := &Scheduler{
		env:         env,
		prepped:     prepped,
		gran:        gran,
		horizonDays: DefaultHorizonDays,
	}
	// Whole-expression symbolic lowering: basic calendars and their
	// compositions (selections over groupings, unions, differences) get an
	// arithmetic-only path, and provably-empty expressions never probe.
	if p, ok := symbolic.Eval(env.Chron, env.Cat, prepped, gran); ok {
		if p == nil {
			s.dormant = true
		} else {
			s.exact = p
		}
	}
	return s
}

// Configure sets the lookahead horizon in days (≤ 0 keeps the current value)
// and the scheduler's one ablation switch, under which every query evaluates
// the full horizon window — the seed behavior.
func (s *Scheduler) Configure(horizonDays int64, forceWindowed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if horizonDays > 0 {
		s.horizonDays = horizonDays
	}
	s.forceWindowed = forceWindowed
}

// PlanString returns the rendering of the most recently compiled plan (one
// exists from the first NextAfter call on) for the RULE-INFO catalog.
func (s *Scheduler) PlanString() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan == nil {
		return ""
	}
	return s.plan.String()
}

// Probes reports how many windowed evaluations the scheduler has run — the
// work the pattern rung avoids.
func (s *Scheduler) Probes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.probes
}

// NextAfter returns the first instant (epoch seconds) at which the
// expression fires strictly after `after`, searching at most the configured
// horizon ahead. ok is false when the expression is dormant over the whole
// horizon. The result is identical to evaluating the full horizon window
// and scanning for the minimum start strictly after `after` (the seed
// nextTrigger semantics); only the work differs.
func (s *Scheduler) NextAfter(after int64) (at int64, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.env.Chron
	from := ch.CivilOfDayTick(ch.TickAt(chronology.Day, after))
	to := from.AddDays(s.horizonDays)
	hwin, err := CivilWindow(ch, s.gran, from, to)
	if err != nil {
		return 0, false, err
	}
	if s.plan == nil {
		// Compile the eval plan once even on pattern paths that never probe.
		if _, cerr := s.compile(hwin); cerr != nil {
			return 0, false, cerr
		}
	}
	if s.forceWindowed {
		return s.probeWindow(after, hwin)
	}
	if s.dormant {
		return 0, false, nil
	}
	if s.exact != nil {
		afterTick := ch.TickAt(s.gran, after)
		_, t := s.exact.NextAfter(afterTick)
		if t > hwin.Hi {
			return 0, false, nil
		}
		return ch.UnitStart(s.gran, t), true, nil
	}
	return s.probeWindow(after, hwin)
}

// probeWindow evaluates the expression over one window and scans for the
// minimum start strictly after `after` — the seed path.
func (s *Scheduler) probeWindow(after int64, win interval.Interval) (int64, bool, error) {
	cal, err := s.eval(win)
	if err != nil {
		return 0, false, err
	}
	ch := s.env.Chron
	best, ok := int64(math.MaxInt64), false
	for _, iv := range cal.Flatten().Intervals() {
		if at := ch.UnitStart(s.gran, iv.Lo); at > after && at < best {
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
// when it was compiled over the same window (the first probe reuses the plan
// the first NextAfter call compiled), else a new one, which becomes the last.
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
	s.Configure(horizonDays, false)
	return s.NextAfter(after)
}
