package chronology

import (
	"math/rand"
	"testing"
	"time"
)

// timeOracle answers what a Chronology answers from Go's time package in
// UTC, a proleptic-Gregorian arithmetic this package did not write. It
// encodes the paper's conventions and nothing else of Chronology's: ticks
// skip 0 (offset 0 is tick 1, offset -1 is tick -1), a week starts on
// Monday and Monday is 1, and decades and centuries start at years
// divisible by 10 and 100 (1900-1999 is one century).
type timeOracle struct{ epoch time.Time }

func utc(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }

func (o timeOracle) at(sec int64) time.Time { return time.Unix(o.epoch.Unix()+sec, 0).UTC() }
func (o timeOracle) sec(t time.Time) int64  { return t.Unix() - o.epoch.Unix() }

func civilOfTime(t time.Time) Civil { return Civil{t.Year(), int(t.Month()), t.Day()} }

// unixDay is the day number of t's date counted from 1970-01-01.
func unixDay(t time.Time) int64 { return utc(t.Year(), int(t.Month()), t.Day()).Unix() / SecondsPerDay }

func weekdayOf(t time.Time) Weekday {
	if w := t.Weekday(); w != time.Sunday {
		return Weekday(w)
	}
	return Sunday
}

// weekStart is midnight of the Monday that begins t's week.
func weekStart(t time.Time) time.Time {
	return utc(t.Year(), int(t.Month()), t.Day()-int(weekdayOf(t)-Monday))
}

func noZero(off int64) Tick {
	if off >= 0 {
		return off + 1
	}
	return off
}

var subDay = map[Granularity]time.Duration{Second: time.Second, Minute: time.Minute, Hour: time.Hour}

// offset is the number of g units from the epoch's unit to the one holding
// epoch-second sec.
func (o timeOracle) offset(g Granularity, sec int64) int64 {
	t, e := o.at(sec), o.epoch
	switch g {
	case Second, Minute, Hour:
		return o.sec(t.Truncate(subDay[g])) / int64(subDay[g]/time.Second)
	case Day:
		return o.sec(utc(t.Year(), int(t.Month()), t.Day())) / SecondsPerDay
	case Week:
		return (o.sec(weekStart(t)) - o.sec(weekStart(e))) / (7 * SecondsPerDay)
	case Month:
		return int64((t.Year()-e.Year())*12 + int(t.Month()) - int(e.Month()))
	case Year:
		return int64(t.Year() - e.Year())
	case Decade:
		return int64(t.Year()/10 - e.Year()/10)
	}
	return int64(t.Year()/100 - e.Year()/100)
}

// start is the first epoch-second of the g unit off units after the epoch's.
func (o timeOracle) start(g Granularity, off int64) int64 {
	e, n := o.epoch, int(off)
	switch g {
	case Second, Minute, Hour:
		return off * int64(subDay[g]/time.Second)
	case Day:
		return o.sec(utc(e.Year(), int(e.Month()), e.Day()+n))
	case Week:
		w := weekStart(e)
		return o.sec(utc(w.Year(), int(w.Month()), w.Day()+7*n))
	case Month:
		return o.sec(utc(e.Year(), int(e.Month())+n, 1))
	case Year:
		return o.sec(utc(e.Year()+n, 1, 1))
	case Decade:
		return o.sec(utc((e.Year()/10+n)*10, 1, 1))
	}
	return o.sec(utc((e.Year()/100+n)*100, 1, 1))
}

// check compares every answer the chronology gives about epoch-second sec,
// and AddDays(n) of its date, with the oracle's.
func (o timeOracle) check(t *testing.T, c *Chronology, sec, n int64) {
	t.Helper()
	for _, g := range Granularities() {
		off := o.offset(g, sec)
		tick := noZero(off)
		start, end := o.start(g, off), o.start(g, off+1)
		if got := c.TickAt(g, sec); got != tick {
			t.Fatalf("epoch %v: TickAt(%v, %d) = %d, time says %d (%v)", c.Epoch(), g, sec, got, tick, o.at(sec))
		}
		if got := c.UnitStart(g, tick); got != start {
			t.Fatalf("epoch %v: UnitStart(%v, %d) = %d, time says %d (%v)", c.Epoch(), g, tick, got, start, o.at(start))
		}
		if got := c.UnitEndExcl(g, tick); got != end {
			t.Fatalf("epoch %v: UnitEndExcl(%v, %d) = %d, time says %d (%v)", c.Epoch(), g, tick, got, end, o.at(end))
		}
		if first, last := c.DaySpan(g, tick, tick); first != unixDay(o.at(start)) || last != unixDay(o.at(end-1)) {
			t.Fatalf("epoch %v: DaySpan(%v, %d) = (%d, %d), time says (%d, %d)", c.Epoch(), g, tick,
				first, last, unixDay(o.at(start)), unixDay(o.at(end-1)))
		}
	}
	u := o.at(sec)
	d := civilOfTime(u)
	if got := c.CivilOfDayTick(noZero(o.offset(Day, sec))); got != d {
		t.Fatalf("epoch %v: CivilOfDayTick of second %d = %v, time says %v", c.Epoch(), sec, got, d)
	}
	if got := d.Rata(); got != unixDay(u) {
		t.Fatalf("%v.Rata() = %d, time says %d", d, got, unixDay(u))
	}
	if got := d.Weekday(); got != weekdayOf(u) {
		t.Fatalf("%v.Weekday() = %v, time says %v", d, got, weekdayOf(u))
	}
	if got, want := c.EpochSecondsOf(d), o.sec(utc(d.Year, d.Month, d.Day)); got != want {
		t.Fatalf("epoch %v: EpochSecondsOf(%v) = %d, time says %d", c.Epoch(), d, got, want)
	}
	if got, want := d.AddDays(n), civilOfTime(utc(d.Year, d.Month, d.Day+int(n))); got != want {
		t.Fatalf("%v.AddDays(%d) = %v, time says %v", d, n, got, want)
	}
}

// TestChronologyAgainstTime checks the chronology against the time package
// in UTC at random instants of years 1-9999, around the epoch (ticks -3..3
// of every granularity, a second either side of each unit's start), and at
// month ends and leap days of years that test the Gregorian rules, under the
// default epoch and a leap-day one.
func TestChronologyAgainstTime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, epoch := range []Civil{DefaultEpoch, {2000, 2, 29}} {
		c := MustNew(epoch)
		o := timeOracle{utc(epoch.Year, epoch.Month, epoch.Day)}
		addDays := func() int64 { return rng.Int63n(6001) - 3000 }
		lo, hi := o.sec(utc(1, 1, 1)), o.sec(utc(10000, 1, 1))
		for i := 0; i < 20000; i++ {
			o.check(t, c, lo+rng.Int63n(hi-lo), addDays())
		}
		for _, g := range Granularities() {
			for off := int64(-3); off <= 3; off++ {
				s := o.start(g, off)
				for _, sec := range []int64{s - 1, s, s + 1} {
					o.check(t, c, sec, addDays())
				}
			}
		}
		for _, y := range []int{1, 4, 100, 400, 1582, 1900, 1986, 1987, 1999, 2000, 2004, 2100, 2400, 9996, 9999} {
			for m := 1; m <= 12; m++ {
				for _, d := range []int{1, 28, 29, 30, 31} {
					s := o.sec(utc(y, m, d))
					for _, sec := range []int64{s - 1, s, s + SecondsPerDay - 1} {
						o.check(t, c, sec, addDays())
					}
				}
			}
		}
	}
}
