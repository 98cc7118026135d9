// Package timeseries implements regular time series over calendars: series
// whose observation instants are defined by a calendar expression, so the
// time points need not be stored — they are generated on request, which is
// how the paper proposes maintaining valid time for regular series such as
// the quarterly GNP (§1).
//
// The package also implements the paper's future-work item (a): selection
// predicates over the series values ("the time points at which the
// end-of-day closing prices for two successive days showed an increase"),
// as pattern queries over value windows.
package timeseries

import (
	"fmt"
	"math"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

// Obs is one observation: its valid-time interval (generated, not stored)
// and its value.
type Obs struct {
	Span  interval.Interval
	Value float64
}

// Regular is a regular time series: values only, with valid time defined by
// a calendar expression evaluated on demand.
type Regular struct {
	name   string
	calSrc string
	mgr    *caldb.Manager
	from   chronology.Civil
	values []float64

	gran chronology.Granularity
	// horizonDays is how far ahead the calendar has had to be evaluated so
	// far. The spans themselves are not kept here: every request re-evaluates
	// the expression through the catalog's shared materialization cache, so
	// repeated requests are cheap while calendar redefinitions (a holiday
	// list replaced mid-year) are picked up instead of served stale.
	horizonDays int64
}

// NewRegular creates a series whose observation spans are the elements of
// the calendar expression, starting at from. For quarterly GNP the
// expression would be "caloperate(MONTHS, 3)" or a stored QUARTERS calendar.
func NewRegular(mgr *caldb.Manager, name, calExpr string, from chronology.Civil) (*Regular, error) {
	if !from.Valid() {
		return nil, fmt.Errorf("timeseries: invalid start date %v", from)
	}
	r := &Regular{name: name, calSrc: calExpr, mgr: mgr, from: from, horizonDays: 366}
	// Validate the expression eagerly.
	if _, err := r.spansFor(1); err != nil {
		return nil, err
	}
	return r, nil
}

// Append records the next observation; its valid time is implicit.
func (r *Regular) Append(vs ...float64) {
	r.values = append(r.values, vs...)
}

// spansFor evaluates the calendar far enough ahead to yield at least n
// observation spans, doubling the horizon as needed. The evaluation runs
// through the catalog's shared materialization cache, so only the first
// request (and requests after a catalog change, whose results must differ)
// pays for generation.
func (r *Regular) spansFor(n int) ([]interval.Interval, error) {
	// maxHorizonDays bounds the search to ~80 years; a calendar yielding
	// fewer points than observations within that span is an error.
	const maxHorizonDays = 30000
	var spans []interval.Interval
	for {
		if r.horizonDays > maxHorizonDays {
			return nil, fmt.Errorf("timeseries %s: calendar %q yields too few points (%d of %d) within %d days",
				r.name, r.calSrc, len(spans), n, r.horizonDays)
		}
		to := r.from.AddDays(r.horizonDays)
		cal, err := r.mgr.EvalExpr(r.calSrc, r.from, to)
		if err != nil {
			return nil, err
		}
		flat := cal.Flatten()
		r.gran = flat.Granularity()
		// Keep only spans at or after the series start.
		startTick := r.mgr.Chron().TickAt(r.gran, r.mgr.Chron().EpochSecondsOf(r.from))
		spans = spans[:0]
		for _, iv := range flat.Intervals() {
			if iv.Hi >= startTick {
				spans = append(spans, iv)
			}
		}
		if len(spans) >= n {
			return spans, nil
		}
		r.horizonDays *= 2
	}
}

// Observations materializes the series: spans generated from the calendar,
// paired with stored values.
func (r *Regular) Observations() ([]Obs, error) {
	spans, err := r.spansFor(len(r.values))
	if err != nil {
		return nil, err
	}
	out := make([]Obs, len(r.values))
	for i, v := range r.values {
		out[i] = Obs{Span: spans[i], Value: v}
	}
	return out, nil
}

// At returns the value valid at the given civil date, resolved through the
// generated calendar.
func (r *Regular) At(d chronology.Civil) (float64, bool, error) {
	spans, err := r.spansFor(len(r.values))
	if err != nil {
		return 0, false, err
	}
	tick := r.mgr.Chron().TickAt(r.gran, r.mgr.Chron().EpochSecondsOf(d))
	for i := range r.values {
		if spans[i].Contains(tick) {
			return r.values[i], true, nil
		}
	}
	return 0, false, nil
}

// Slice returns the observations whose spans overlap [from, to].
func (r *Regular) Slice(from, to chronology.Civil) ([]Obs, error) {
	obs, err := r.Observations()
	if err != nil {
		return nil, err
	}
	ch := r.mgr.Chron()
	lo := ch.TickAt(r.gran, ch.EpochSecondsOf(from))
	hi := ch.TickAt(r.gran, ch.EpochSecondsOf(to.AddDays(1))-1)
	win := interval.Interval{Lo: lo, Hi: hi}
	var out []Obs
	for _, o := range obs {
		if _, ok := o.Span.Intersect(win); ok {
			out = append(out, o)
		}
	}
	return out, nil
}

// AggregateTo regroups the series under a coarser calendar expression,
// combining the values of observations falling in each coarser span with
// agg. Observations overlapping a coarser span contribute to it.
func (r *Regular) AggregateTo(coarseExpr string, agg func([]float64) float64) ([]Obs, error) {
	obs, err := r.Observations()
	if err != nil {
		return nil, err
	}
	if len(obs) == 0 {
		return nil, nil
	}
	ch := r.mgr.Chron()
	lastHi := obs[len(obs)-1].Span.Hi
	endSec := ch.UnitEndExcl(r.gran, lastHi) - 1
	to := ch.CivilOf(endSec)
	coarse, err := r.mgr.EvalExpr(coarseExpr, r.from, to)
	if err != nil {
		return nil, err
	}
	flatRaw := coarse.Flatten()
	flat, err := calendar.ConvertGran(ch, flatRaw, r.gran)
	if err != nil {
		return nil, err
	}
	var out []Obs
	for _, span := range flat.Intervals() {
		var group []float64
		for _, o := range obs {
			if _, ok := o.Span.Intersect(span); ok {
				group = append(group, o.Value)
			}
		}
		if len(group) > 0 {
			out = append(out, Obs{Span: span, Value: agg(group)})
		}
	}
	return out, nil
}

// Mean is an aggregation function for AggregateTo.
func Mean(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Sum is an aggregation function for AggregateTo.
func Sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

// Last is an aggregation function for AggregateTo (end-of-period sampling).
func Last(vs []float64) float64 { return vs[len(vs)-1] }

// Max is an aggregation function for AggregateTo.
func Max(vs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// --- pattern selection (future work (a) of §6) -------------------------

// Pattern is a predicate over a sliding window of consecutive values.
type Pattern struct {
	// Width is the window length (2 for S_t vs Next(S_t)).
	Width int
	// Match reports whether the window exhibits the pattern.
	Match func(window []float64) bool
}

// Increase is the paper's example pattern {S_t < Next(S_t)}.
var Increase = Pattern{Width: 2, Match: func(w []float64) bool { return w[0] < w[1] }}

// Decrease is the mirrored pattern.
var Decrease = Pattern{Width: 2, Match: func(w []float64) bool { return w[0] > w[1] }}

// TwoDayRise matches two successive increases ("end-of-day closing prices
// for two successive days showed an increase").
var TwoDayRise = Pattern{Width: 3, Match: func(w []float64) bool { return w[0] < w[1] && w[1] < w[2] }}

// SelectPattern returns, as a calendar, the valid-time spans of the
// observations starting each window that matches the pattern — turning the
// paper's proposed "Retrieve the time points at which ..." query into a
// calendar usable in further algebra.
func (r *Regular) SelectPattern(p Pattern) (*calendar.Calendar, []int, error) {
	if p.Width < 1 || p.Match == nil {
		return nil, nil, fmt.Errorf("timeseries: pattern needs a positive width and a matcher")
	}
	obs, err := r.Observations()
	if err != nil {
		return nil, nil, err
	}
	var idx []int
	var ivs []interval.Interval
	for i := 0; i+p.Width <= len(obs); i++ {
		window := make([]float64, p.Width)
		for j := 0; j < p.Width; j++ {
			window[j] = obs[i+j].Value
		}
		if p.Match(window) {
			idx = append(idx, i)
			ivs = append(ivs, obs[i].Span)
		}
	}
	cal, err := calendar.FromIntervals(r.gran, ivs)
	if err != nil {
		return nil, nil, err
	}
	return cal, idx, nil
}
