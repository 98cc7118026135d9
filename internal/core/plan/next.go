// next.go implements the next-instant kernel: "when does this calendar fire
// next?" answered without materializing the whole lookahead window whenever
// the expression's shape allows it.
//
// Strategy, in order of preference:
//
//  1. Infinite pattern. A prepared expression the symbolic calculus lowers
//     — a basic calendar, or a composition of them — maps to its exact
//     periodic.Pattern; NextAfter answers in O(log spans) arithmetic for
//     any instant, forever.
//  2. Cached probe. Window-anchor-free expressions with no symbolic form
//     (anything over a stored calendar such as HOLIDAYS) evaluate once over
//     the full horizon; the sorted element starts are cached and subsequent
//     queries answer by O(log n) search until they near the cached window's
//     end, where generation-edge effects begin and a fresh probe re-anchors
//     the cache.
//  3. Full window. Everything else — caloperate grouping, order-1
//     selections (they index the windowed list itself, so they are anchored
//     at the probe instant), before/<= foreach, opaque derived calendars,
//     `today` — evaluates the full horizon window exactly like the seed
//     nextTrigger path, so genuinely aperiodic calendars keep their
//     semantics bit-for-bit. This rung is the definition the other two are
//     tested against.
package plan

import (
	"math"
	"sort"
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

// anchorFree reports whether a prepared (inlined + factorized) expression's
// elements are intrinsic to the timeline — the materialization of a window is
// independent of where the window starts, so one probe's result can serve
// queries at any later instant it covers. Anything unrecognized is anchored,
// which routes every query through the seed full-window path.
func anchorFree(cat Catalog, e callang.Expr) bool {
	switch n := e.(type) {
	case *callang.Ident:
		if callang.IsToday(n.Name) {
			return false
		}
		if _, err := chronology.ParseGranularity(n.Name); err == nil {
			return true
		}
		// Anything else is an opaque derived calendar (a script that
		// branches, waits or alerts) or an unknown name: its script may read
		// today or wait on the clock.
		_, stored := cat.StoredCalendar(n.Name)
		return stored
	case *callang.Number, *callang.StringLit:
		return true
	case *callang.LabelSelExpr:
		return anchorFree(cat, n.X)
	case *callang.ForeachExpr:
		switch n.Op {
		case interval.Before, interval.BeforeEquals:
			// Elements reach back to the window's start.
			return false
		}
		return anchorFree(cat, n.X) && anchorFree(cat, n.Y)
	case *callang.IntersectExpr:
		return anchorFree(cat, n.X) && anchorFree(cat, n.Y)
	case *callang.BinExpr:
		return anchorFree(cat, n.X) && anchorFree(cat, n.Y)
	case *callang.SelectExpr:
		// Per-group selection: each group is an intrinsic unit (the third
		// Friday of a month does not care where the window starts). An
		// order-1 selection indexes the windowed list itself.
		return exprOrder(n.X) >= 2 && anchorFree(cat, n.X)
	case *callang.CallExpr:
		// caloperate groups count off from the window's first element.
		return n.Name == "interval" || n.Name == "points" || n.Name == "generate"
	}
	return false
}

// exprOrder estimates the order of an expression's value — whether selection
// over it applies per sub-group (order ≥ 2) or to the windowed list itself.
func exprOrder(e callang.Expr) int {
	switch n := e.(type) {
	case *callang.ForeachExpr:
		return 2
	case *callang.SelectExpr:
		if n.Pred.Single() {
			return 1 // single selection collapses one level
		}
		return exprOrder(n.X)
	case *callang.CallExpr:
		if n.Name == "caloperate" {
			return 2
		}
	}
	return 1
}

// exprSlack bounds the generation-edge effects of one windowed evaluation:
// elements within this many seconds of the window's end may differ from what
// a longer window yields (straddling units, groups cut short), so cached
// answers are only served below it.
func exprSlack(e callang.Expr) int64 {
	if id, ok := e.(*callang.Ident); ok {
		if g, err := chronology.ParseGranularity(id.Name); err == nil {
			return chronology.MaxUnitSeconds(g)
		}
		if callang.IsToday(id.Name) {
			return 0
		}
		// Stored or derived calendars hold absolute values; allow a year of
		// straddle for their elements.
		return chronology.MaxUnitSeconds(chronology.Year)
	}
	var max int64
	for _, c := range e.Children() {
		if s := exprSlack(c); s > max {
			max = s
		}
	}
	return max
}

// A Scheduler answers next-instant queries for one prepared expression. It
// is safe for concurrent use; the rules engine shares one Scheduler among
// all rules over the same prepared plan (shared-plan fan-out), so the probe
// cost below is paid once per plan, not once per rule.
type Scheduler struct {
	env     *Env
	prepped callang.Expr
	gran    chronology.Granularity

	mu            sync.Mutex
	horizonDays   int64
	forceWindowed bool
	anchorFree    bool
	slack         int64
	planText      string
	probes        int64 // windowed evaluations performed

	// exact is the infinite-pattern fast path: the symbolic calculus lowered
	// the prepared expression (a basic calendar, or a composition of them)
	// to closed form, answered by arithmetic with no evaluation ever.
	exact *periodic.Pattern

	// dormant marks an expression the symbolic calculus proved empty on
	// every window: NextAfter answers ok=false without ever evaluating.
	dormant bool

	// Anchor-free probe cache: the sorted element start ticks of the horizon
	// materialized at anchor.
	starts    []chronology.Tick
	anchor    int64 // epoch second the cached probe was anchored at
	safeThru  int64 // serve cached answers at or before this instant
	haveCache bool
}

// NewScheduler builds a scheduler for a prepared expression (the output of
// Prepare). The environment's catalog must stay fixed for the scheduler's
// lifetime; the rules engine keys schedulers by catalog generation and
// rebuilds them on change.
func NewScheduler(env *Env, prepped callang.Expr, gran chronology.Granularity) *Scheduler {
	s := &Scheduler{
		env:         env,
		prepped:     prepped,
		gran:        gran,
		horizonDays: DefaultHorizonDays,
	}
	s.anchorFree = anchorFree(env.Cat, prepped)
	s.slack = 2 * exprSlack(prepped)
	if !env.DisableSymbolic {
		// Whole-expression symbolic lowering: basic calendars and their
		// compositions (selections over groupings, unions, differences) get
		// an arithmetic-only path, and provably-empty expressions never probe.
		if p, ok := symbolic.Eval(env.Chron, env.Cat, prepped, gran); ok {
			if p == nil {
				s.dormant = true
			} else {
				s.exact = p
			}
		}
	}
	return s
}

// Configure sets the lookahead horizon in days (≤ 0 keeps the current value)
// and the windowed-ablation switch, under which every query evaluates the
// full horizon window — the seed behavior.
func (s *Scheduler) Configure(horizonDays int64, forceWindowed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if horizonDays > 0 && horizonDays != s.horizonDays {
		s.horizonDays = horizonDays
		s.haveCache, s.starts = false, nil
	}
	s.forceWindowed = forceWindowed
}

// PlanString returns the rendering of the most recently compiled plan (set
// by the first NextAfter call) for the RULE-INFO catalog.
func (s *Scheduler) PlanString() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.planText
}

// Probes reports how many windowed evaluations the scheduler has run — the
// work the kernel amortizes away.
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
	if s.planText == "" {
		// Render the eval plan once even on pattern paths that never compile.
		p, cerr := Compile(s.env, s.prepped, nil, s.gran, hwin)
		if cerr != nil {
			return 0, false, cerr
		}
		s.planText = p.String()
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
	if s.anchorFree {
		if at, ok, hit := s.cachedNext(after, ch.TickAt(s.gran, after)); hit {
			return at, ok, nil
		}
	}
	return s.probeWindow(after, hwin) // re-anchors the cache when anchor-free
}

// cachedNext serves a query from the cached probe. hit=false falls through
// to a fresh probe.
func (s *Scheduler) cachedNext(after int64, afterTick chronology.Tick) (at int64, ok, hit bool) {
	if !s.haveCache || after < s.anchor {
		return 0, false, false
	}
	i := sort.Search(len(s.starts), func(i int) bool { return s.starts[i] > afterTick })
	if i == len(s.starts) {
		return 0, false, false
	}
	at = s.env.Chron.UnitStart(s.gran, s.starts[i])
	if at > s.safeThru {
		// Too close to the cached window's end: edge effects possible.
		return 0, false, false
	}
	return at, true, true
}

// probeWindow evaluates the expression over one window and scans for the
// minimum start strictly after `after` — the seed path. For an anchor-free
// expression the materialization is also cached for subsequent queries.
func (s *Scheduler) probeWindow(after int64, win interval.Interval) (int64, bool, error) {
	cal, err := s.eval(win)
	if err != nil {
		return 0, false, err
	}
	ch := s.env.Chron
	ivs := cal.Flatten().Intervals()
	if !s.forceWindowed && s.anchorFree {
		s.fillCache(after, win, ivs)
	}
	best, ok := int64(math.MaxInt64), false
	for _, iv := range ivs {
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
	p, err := Compile(s.env, s.prepped, nil, s.gran, win)
	if err != nil {
		return nil, err
	}
	s.planText = p.String()
	return p.Exec(s.env, nil)
}

// fillCache stores the sorted element starts of a probe's materialization.
func (s *Scheduler) fillCache(after int64, win interval.Interval, ivs []interval.Interval) {
	starts := make([]chronology.Tick, len(ivs))
	for i, iv := range ivs {
		starts[i] = iv.Lo
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	s.starts, s.haveCache = starts, true
	s.anchor = after
	s.safeThru = s.env.Chron.UnitStart(s.gran, win.Hi) - s.slack
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
