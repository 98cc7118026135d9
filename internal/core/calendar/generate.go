package calendar

import (
	"fmt"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// Generate implements the paper's generate(cal1, cal2, [ts,te]) function
// (§3.2): it returns the order-1 calendar whose elements are the units of
// granularity `of` overlapping the window [ts,te], each expressed as an
// inclusive tick interval of granularity `in`.
//
// Following the paper's examples, a unit straddling the start of the window
// keeps its true lower bound (the 1993 WEEKS calendar begins (-4,3)), while
// te is a hard horizon: the final unit is truncated at te, as in
// generate(YEARS, DAYS, [Jan 1 1987, Jan 3 1992]) ending with (1827,1829).
func Generate(ch *chronology.Chronology, of, in chronology.Granularity, ts, te chronology.Tick) (*Calendar, error) {
	c, err := GenerateFull(ch, of, in, ts, te)
	if err != nil {
		return nil, err
	}
	// Only the unit holding te can reach past it.
	if last := &c.ivs[len(c.ivs)-1]; last.Hi > te {
		last.Hi = te
	}
	return c, nil
}

// GenerateCivil is Generate with a civil-date window. The end date is
// inclusive: for sub-day granularities the window extends to the last tick
// of the end day.
func GenerateCivil(ch *chronology.Chronology, of, in chronology.Granularity, from, to chronology.Civil) (*Calendar, error) {
	if !from.Valid() || !to.Valid() {
		return nil, fmt.Errorf("calendar: generate with invalid civil date")
	}
	if to.Before(from) {
		return nil, fmt.Errorf("calendar: generate window %v..%v is reversed", from, to)
	}
	ts := ch.TickAt(in, ch.EpochSecondsOf(from))
	te := ch.TickAt(in, ch.EpochSecondsOf(to.AddDays(1))-1)
	return Generate(ch, of, in, ts, te)
}

// Caloperate implements the paper's caloperate(C, Te; (x1;...;xn)) function
// (§3.2) with an unbounded end time (the paper's "*"): the i-th element of
// the result is the union (hull) of the next x_{i mod n} consecutive
// elements of C. A final partial group is kept.
func Caloperate(c *Calendar, counts []int) (*Calendar, error) {
	if c.Order() != 1 {
		return nil, fmt.Errorf("calendar: caloperate requires an order-1 calendar, got order %d", c.Order())
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("calendar: caloperate needs at least one group count")
	}
	for _, x := range counts {
		if x <= 0 {
			return nil, fmt.Errorf("calendar: caloperate group count %d must be positive", x)
		}
	}
	var out []interval.Interval
	i, g := 0, 0
	for i < len(c.ivs) {
		take := counts[g%len(counts)]
		g++
		j := i + take
		if j > len(c.ivs) {
			j = len(c.ivs)
		}
		iv := interval.Interval{Lo: c.ivs[i].Lo, Hi: c.ivs[j-1].Hi}
		for _, member := range c.ivs[i:j] {
			if member.Lo < iv.Lo {
				iv.Lo = member.Lo
			}
			if member.Hi > iv.Hi {
				iv.Hi = member.Hi
			}
		}
		out = append(out, iv)
		i = j
	}
	return newLeaf(c.gran, out, false), nil
}
