package chronology

import "fmt"

// SecondsPerDay is the length of a civil day in this chronology. Leap
// seconds and time zones are outside the paper's model and are not
// represented.
const SecondsPerDay = 86400

// A Chronology anchors the basic calendars at a system start date (the
// paper's example uses January 1, 1987) and converts between civil instants
// and no-zero ticks at every basic granularity.
//
// Internally an instant is a signed count of seconds from midnight at the
// start of the epoch day ("epoch seconds"); zero is a valid epoch second even
// though it is not a valid tick.
type Chronology struct {
	epoch     Civil
	epochRata int64 // days from 1970-01-01 to the epoch day
}

// DefaultEpoch is the system start date used throughout the paper's
// examples for 1987-anchored lists, January 1, 1987.
var DefaultEpoch = Civil{Year: 1987, Month: 1, Day: 1}

// New returns a Chronology anchored at the given epoch date.
func New(epoch Civil) (*Chronology, error) {
	if !epoch.Valid() {
		return nil, fmt.Errorf("chronology: invalid epoch date %+v", epoch)
	}
	return &Chronology{epoch: epoch, epochRata: epoch.Rata()}, nil
}

// MustNew is New for epochs known to be valid at compile time.
func MustNew(epoch Civil) *Chronology {
	c, err := New(epoch)
	if err != nil {
		panic(err)
	}
	return c
}

// Epoch returns the system start date.
func (c *Chronology) Epoch() Civil { return c.epoch }

// EpochSecondsOf returns the epoch-second of midnight on the given civil day.
func (c *Chronology) EpochSecondsOf(d Civil) int64 {
	return (d.Rata() - c.epochRata) * SecondsPerDay
}

// CivilOf returns the civil day containing the given epoch second.
func (c *Chronology) CivilOf(sec int64) Civil {
	return CivilFromRata(c.epochRata + floorDiv(sec, SecondsPerDay))
}

// rataOf returns the rata day containing the epoch second.
func (c *Chronology) rataOf(sec int64) int64 {
	return c.epochRata + floorDiv(sec, SecondsPerDay)
}

// weekStartRata returns the rata day of the Monday beginning the week that
// contains rata day z.
func weekStartRata(z int64) int64 {
	return z - int64(WeekdayOfRata(z)-Monday)
}

// UnitStart returns the first epoch-second of unit t of granularity g.
func (c *Chronology) UnitStart(g Granularity, t Tick) int64 {
	off := OffsetFromTick(t)
	switch g {
	case Second:
		return off
	case Minute:
		return off * 60
	case Hour:
		return off * 3600
	case Day:
		return off * SecondsPerDay
	case Week:
		ws := weekStartRata(c.epochRata) + off*7
		return (ws - c.epochRata) * SecondsPerDay
	case Month:
		mi := c.epochMonthIndex() + off
		y, m := int(floorDiv(mi, 12)), int(floorMod(mi, 12))+1
		return (Civil{Year: y, Month: m, Day: 1}.Rata() - c.epochRata) * SecondsPerDay
	case Year:
		y := c.epoch.Year + int(off)
		return (Civil{Year: y, Month: 1, Day: 1}.Rata() - c.epochRata) * SecondsPerDay
	case Decade:
		dy := int(floorDiv(int64(c.epoch.Year), 10)+off) * 10
		return (Civil{Year: dy, Month: 1, Day: 1}.Rata() - c.epochRata) * SecondsPerDay
	case Century:
		cy := int(floorDiv(int64(c.epoch.Year), 100)+off) * 100
		return (Civil{Year: cy, Month: 1, Day: 1}.Rata() - c.epochRata) * SecondsPerDay
	}
	panic(fmt.Sprintf("chronology: UnitStart of invalid granularity %v", g))
}

// UnitEndExcl returns the first epoch-second after unit t of granularity g
// (i.e. the start of the next unit).
func (c *Chronology) UnitEndExcl(g Granularity, t Tick) int64 {
	return c.UnitStart(g, NextTick(t))
}

// DaySpan returns the rata days holding the first second of unit lo and the
// last second of unit hi of granularity g. Day ticks are days already; the
// other granularities go through epoch seconds.
func (c *Chronology) DaySpan(g Granularity, lo, hi Tick) (first, last int64) {
	if g == Day {
		return c.epochRata + OffsetFromTick(lo), c.epochRata + OffsetFromTick(hi)
	}
	return c.rataOf(c.UnitStart(g, lo)), c.rataOf(c.UnitEndExcl(g, hi) - 1)
}

// TickAt returns the tick of the unit of granularity g containing the given
// epoch second.
func (c *Chronology) TickAt(g Granularity, sec int64) Tick {
	switch g {
	case Second:
		return TickFromOffset(sec)
	case Minute:
		return TickFromOffset(floorDiv(sec, 60))
	case Hour:
		return TickFromOffset(floorDiv(sec, 3600))
	case Day:
		return TickFromOffset(floorDiv(sec, SecondsPerDay))
	case Week:
		z := c.rataOf(sec)
		return TickFromOffset(floorDiv(z-weekStartRata(c.epochRata), 7))
	case Month:
		d := c.CivilOf(sec)
		mi := int64(d.Year)*12 + int64(d.Month-1)
		return TickFromOffset(mi - c.epochMonthIndex())
	case Year:
		d := c.CivilOf(sec)
		return TickFromOffset(int64(d.Year - c.epoch.Year))
	case Decade:
		d := c.CivilOf(sec)
		return TickFromOffset(floorDiv(int64(d.Year), 10) - floorDiv(int64(c.epoch.Year), 10))
	case Century:
		d := c.CivilOf(sec)
		return TickFromOffset(floorDiv(int64(d.Year), 100) - floorDiv(int64(c.epoch.Year), 100))
	}
	panic(fmt.Sprintf("chronology: TickAt of invalid granularity %v", g))
}

func (c *Chronology) epochMonthIndex() int64 {
	return int64(c.epoch.Year)*12 + int64(c.epoch.Month-1)
}

// DayTick returns the day tick of a civil date: tick 1 is the epoch day.
func (c *Chronology) DayTick(d Civil) Tick {
	return TickFromOffset(d.Rata() - c.epochRata)
}

// CivilOfDayTick inverts DayTick.
func (c *Chronology) CivilOfDayTick(t Tick) Civil {
	return CivilFromRata(c.epochRata + OffsetFromTick(t))
}

// YearTick returns the year tick of the calendar year y ("1993/YEARS" selects
// by label, not ordinal).
func (c *Chronology) YearTick(y int) Tick {
	return TickFromOffset(int64(y - c.epoch.Year))
}

// YearOfTick inverts YearTick.
func (c *Chronology) YearOfTick(t Tick) int {
	return c.epoch.Year + int(OffsetFromTick(t))
}

// Rebase converts a tick at granularity g into the tick at granularity h of
// the unit containing g's first instant. For coarser h this is containment;
// for finer h it is the first sub-unit.
func (c *Chronology) Rebase(g Granularity, t Tick, h Granularity) Tick {
	return c.TickAt(h, c.UnitStart(g, t))
}

// UnitSpanIn returns the inclusive tick range, at granularity h, covered by
// unit t of granularity g. For example the unit 1993/YEARS spans day ticks
// (2192, 2556) in the 1987-anchored chronology.
func (c *Chronology) UnitSpanIn(g Granularity, t Tick, h Granularity) (lo, hi Tick) {
	start := c.UnitStart(g, t)
	endExcl := c.UnitEndExcl(g, t)
	return c.TickAt(h, start), c.TickAt(h, endExcl-1)
}
