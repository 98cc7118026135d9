package calendar

import (
	"fmt"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// GenerateFull is Generate without the end-time truncation of the surface
// generate() function: every unit overlapping the window keeps its true
// bounds. Evaluation plans use this form, because for them the window is a
// working range over conceptually infinite basic calendars, not a hard
// horizon — truncating would corrupt relaxed-foreach results at the window
// edge.
func GenerateFull(ch *chronology.Chronology, of, in chronology.Granularity, ts, te chronology.Tick) (*Calendar, error) {
	if !of.Valid() || !in.Valid() {
		return nil, fmt.Errorf("calendar: generate with invalid granularity")
	}
	if of.Finer(in) {
		return nil, fmt.Errorf("calendar: generate cannot express %v in coarser %v units", of, in)
	}
	if err := chronology.CheckTick(ts); err != nil {
		return nil, fmt.Errorf("calendar: generate window start: %w", err)
	}
	if err := chronology.CheckTick(te); err != nil {
		return nil, fmt.Errorf("calendar: generate window end: %w", err)
	}
	if ts > te {
		return nil, fmt.Errorf("calendar: generate window (%d,%d) is reversed", ts, te)
	}
	firstUnit := ch.TickAt(of, ch.UnitStart(in, ts))
	lastUnit := ch.TickAt(of, ch.UnitEndExcl(in, te)-1)
	n := chronology.TickDiff(firstUnit, lastUnit) + 1
	ivs := make([]interval.Interval, 0, n)
	for u := firstUnit; ; u = chronology.NextTick(u) {
		lo, hi := ch.UnitSpanIn(of, u, in)
		ivs = append(ivs, interval.Interval{Lo: lo, Hi: hi})
		if u == lastUnit {
			break
		}
	}
	return newLeaf(in, ivs, false), nil
}

// Unit returns the order-1 calendar holding the single unit t of granularity
// of, expressed in ticks of granularity in (label selection: 1993/YEARS).
func Unit(ch *chronology.Chronology, of, in chronology.Granularity, t chronology.Tick) (*Calendar, error) {
	if err := chronology.CheckTick(t); err != nil {
		return nil, err
	}
	if of.Finer(in) {
		return nil, fmt.Errorf("calendar: cannot express %v unit in coarser %v units", of, in)
	}
	lo, hi := ch.UnitSpanIn(of, t, in)
	return FromIntervals(in, []interval.Interval{{Lo: lo, Hi: hi}})
}

// ConvertGran re-expresses a calendar's ticks in a finer (or equal)
// granularity: each interval (a,b) of units of c's granularity becomes the
// tick span from the start of unit a to the end of unit b.
func ConvertGran(ch *chronology.Chronology, c *Calendar, to chronology.Granularity) (*Calendar, error) {
	if !to.Valid() {
		return nil, fmt.Errorf("calendar: convert to invalid granularity %v", to)
	}
	if c.gran == to {
		return c, nil
	}
	if c.gran.Finer(to) {
		return nil, fmt.Errorf("calendar: cannot convert %v ticks to coarser %v units", c.gran, to)
	}
	// Units map onto disjoint, ordered spans of finer ticks, so the shape —
	// extents and levels included — carries over.
	conv := func(in []interval.Interval) []interval.Interval {
		out := make([]interval.Interval, len(in))
		for i, iv := range in {
			out[i].Lo, _ = ch.UnitSpanIn(c.gran, iv.Lo, to)
			_, out[i].Hi = ch.UnitSpanIn(c.gran, iv.Hi, to)
		}
		return out
	}
	return &Calendar{gran: to, ivs: conv(c.ivs), ext: c.ext, up: c.up, rewritten: conv(c.rewritten), sortedDisjoint: c.sortedDisjoint}, nil
}
