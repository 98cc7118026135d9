package chronology

import (
	"testing"
	"testing/quick"
)

func chron1987(t testing.TB) *Chronology {
	t.Helper()
	c, err := New(DefaultEpoch)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func chron1993(t testing.TB) *Chronology {
	t.Helper()
	return MustNew(Civil{Year: 1993, Month: 1, Day: 1})
}

func TestTickConvention(t *testing.T) {
	if TickFromOffset(0) != 1 || TickFromOffset(-1) != -1 || TickFromOffset(5) != 6 {
		t.Error("TickFromOffset wrong")
	}
	if OffsetFromTick(1) != 0 || OffsetFromTick(-1) != -1 || OffsetFromTick(6) != 5 {
		t.Error("OffsetFromTick wrong")
	}
	if NextTick(-1) != 1 || NextTick(1) != 2 || NextTick(-3) != -2 {
		t.Error("NextTick wrong")
	}
	if PrevTick(1) != -1 || PrevTick(2) != 1 || PrevTick(-1) != -2 {
		t.Error("PrevTick wrong")
	}
	if AddTicks(-1, 1) != 1 || AddTicks(1, -1) != -1 || AddTicks(3, 4) != 7 {
		t.Error("AddTicks wrong")
	}
	if TickDiff(-1, 1) != 1 || TickDiff(1, 3) != 2 {
		t.Error("TickDiff wrong")
	}
	if err := CheckTick(0); err == nil {
		t.Error("CheckTick(0) should fail")
	}
	if err := CheckTick(1); err != nil {
		t.Error("CheckTick(1) should pass")
	}
}

func TestTickZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("OffsetFromTick(0) should panic")
		}
	}()
	OffsetFromTick(0)
}

func TestTickRoundTripProperty(t *testing.T) {
	f := func(off int32) bool {
		return OffsetFromTick(TickFromOffset(int64(off))) == int64(off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The paper (§3.1): with days counted from Jan 1 1993, the WEEKS calendar is
// {(-4,3),(4,10),(11,17),...} because Jan 1 1993 is a Friday and weeks run
// Monday-Sunday.
func TestPaperWeeks1993(t *testing.T) {
	c := chron1993(t)
	want := [][2]Tick{{-4, 3}, {4, 10}, {11, 17}, {18, 24}, {25, 31}, {32, 38}, {39, 45}}
	for i, w := range want {
		lo, hi := c.UnitSpanIn(Week, Tick(i+1), Day)
		if lo != w[0] || hi != w[1] {
			t.Errorf("week %d spans days (%d,%d), want (%d,%d)", i+1, lo, hi, w[0], w[1])
		}
	}
}

// The paper (§3.1): the months of 1993 in day ticks are
// {(1,31),(32,59),(60,90),(91,120),...}.
func TestPaperMonths1993(t *testing.T) {
	c := chron1993(t)
	want := [][2]Tick{{1, 31}, {32, 59}, {60, 90}, {91, 120}, {121, 151}, {152, 181}}
	for i, w := range want {
		lo, hi := c.UnitSpanIn(Month, Tick(i+1), Day)
		if lo != w[0] || hi != w[1] {
			t.Errorf("month %d spans days (%d,%d), want (%d,%d)", i+1, lo, hi, w[0], w[1])
		}
	}
}

// The paper (§3.2): generate(YEARS, DAYS, [Jan 1 1987, Jan 3 1992]) begins
// {(1,365),(366,731),(732,1096),(1097,1461),(1462,1826),...}; the chronology
// supplies the underlying year spans.
func TestPaperYearSpans1987(t *testing.T) {
	c := chron1987(t)
	want := [][2]Tick{{1, 365}, {366, 731}, {732, 1096}, {1097, 1461}, {1462, 1826}, {1827, 2192}}
	for i, w := range want {
		lo, hi := c.UnitSpanIn(Year, Tick(i+1), Day)
		if lo != w[0] || hi != w[1] {
			t.Errorf("year %d spans days (%d,%d), want (%d,%d)", i+1, lo, hi, w[0], w[1])
		}
	}
}

func TestUnitStartEnd(t *testing.T) {
	c := chron1987(t)
	if s := c.UnitStart(Day, 1); s != 0 {
		t.Errorf("UnitStart(Day,1) = %d", s)
	}
	if e := c.UnitEndExcl(Day, 1); e != SecondsPerDay {
		t.Errorf("UnitEndExcl(Day,1) = %d", e)
	}
	if s := c.UnitStart(Day, -1); s != -SecondsPerDay {
		t.Errorf("UnitStart(Day,-1) = %d", s)
	}
	if e := c.UnitEndExcl(Day, -1); e != 0 {
		t.Errorf("UnitEndExcl(Day,-1) = %d", e)
	}
	if s := c.UnitStart(Hour, 1); s != 0 {
		t.Errorf("UnitStart(Hour,1) = %d", s)
	}
	if s := c.UnitStart(Hour, 25); s != 24*3600 {
		t.Errorf("UnitStart(Hour,25) = %d", s)
	}
	// 1987 is in the 1980s decade and the 1900s century.
	if d := c.CivilOf(c.UnitStart(Decade, 1)); d != (Civil{1980, 1, 1}) {
		t.Errorf("decade 1 starts %v", d)
	}
	if d := c.CivilOf(c.UnitStart(Century, 1)); d != (Civil{1900, 1, 1}) {
		t.Errorf("century 1 starts %v", d)
	}
}

func TestTickAtGranularities(t *testing.T) {
	c := chron1987(t)
	// Midnight of the epoch is second 0 => tick 1 at every granularity.
	for _, g := range Granularities() {
		if got := c.TickAt(g, 0); got != 1 {
			t.Errorf("TickAt(%v, 0) = %d, want 1", g, got)
		}
	}
	// One second before the epoch is tick -1 for fine granularities.
	for _, g := range []Granularity{Second, Minute, Hour, Day} {
		if got := c.TickAt(g, -1); got != -1 {
			t.Errorf("TickAt(%v, -1) = %d, want -1", g, got)
		}
	}
	// Jan 1 1987 is a Thursday, so second -1 (Dec 31 1986, a Wednesday) is in
	// the same Monday-aligned week, tick 1.
	if got := c.TickAt(Week, -1); got != 1 {
		t.Errorf("TickAt(Week, -1) = %d, want 1", got)
	}
	// Dec 31 1986 is month tick -1, year tick -1, decade tick 1 (1980s).
	if got := c.TickAt(Month, -1); got != -1 {
		t.Errorf("TickAt(Month,-1) = %d, want -1", got)
	}
	if got := c.TickAt(Year, -1); got != -1 {
		t.Errorf("TickAt(Year,-1) = %d, want -1", got)
	}
	if got := c.TickAt(Decade, -1); got != 1 {
		t.Errorf("TickAt(Decade,-1) = %d, want 1", got)
	}
}

func TestUnitRoundTripProperty(t *testing.T) {
	c := chron1987(t)
	for _, g := range Granularities() {
		g := g
		f := func(off int16) bool {
			tick := TickFromOffset(int64(off))
			start := c.UnitStart(g, tick)
			endExcl := c.UnitEndExcl(g, tick)
			if endExcl <= start {
				return false
			}
			// Every second in the unit maps back to the unit's tick.
			return c.TickAt(g, start) == tick && c.TickAt(g, endExcl-1) == tick &&
				c.TickAt(g, endExcl) == NextTick(tick)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%v: %v", g, err)
		}
	}
}

// DaySpan is the civil days of a span's first and last second, at every
// granularity; the day granularity takes its own path.
func TestDaySpanProperty(t *testing.T) {
	c := chron1987(t)
	for _, g := range Granularities() {
		g := g
		f := func(off int16, length uint8) bool {
			lo := TickFromOffset(int64(off))
			hi := AddTicks(lo, int64(length))
			first, last := c.DaySpan(g, lo, hi)
			return CivilFromRata(first) == c.CivilOf(c.UnitStart(g, lo)) &&
				CivilFromRata(last) == c.CivilOf(c.UnitEndExcl(g, hi)-1)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%v: %v", g, err)
		}
	}
}

func TestDayTickCivil(t *testing.T) {
	c := chron1987(t)
	if got := c.DayTick(Civil{1987, 1, 1}); got != 1 {
		t.Errorf("DayTick(epoch) = %d", got)
	}
	if got := c.DayTick(Civil{1986, 12, 31}); got != -1 {
		t.Errorf("DayTick(day before epoch) = %d", got)
	}
	if got := c.DayTick(Civil{1992, 1, 3}); got != 1829 {
		t.Errorf("DayTick(Jan 3 1992) = %d, want 1829 (paper §3.2)", got)
	}
	if got := c.CivilOfDayTick(1829); got != (Civil{1992, 1, 3}) {
		t.Errorf("CivilOfDayTick(1829) = %v", got)
	}
	if w := c.CivilOfDayTick(1).Weekday(); w != Thursday {
		t.Errorf("epoch weekday = %v, want Thursday", w)
	}
}

func TestYearTick(t *testing.T) {
	c := chron1987(t)
	if got := c.YearTick(1987); got != 1 {
		t.Errorf("YearTick(1987) = %d", got)
	}
	if got := c.YearTick(1993); got != 7 {
		t.Errorf("YearTick(1993) = %d", got)
	}
	if got := c.YearTick(1986); got != -1 {
		t.Errorf("YearTick(1986) = %d", got)
	}
	if got := c.YearOfTick(7); got != 1993 {
		t.Errorf("YearOfTick(7) = %d", got)
	}
}

func TestRebase(t *testing.T) {
	c := chron1987(t)
	// Year 7 (1993) begins in month tick 73 (Jan 1993 is the 73rd month from
	// Jan 1987) and on day tick 2193.
	if got := c.Rebase(Year, 7, Month); got != 73 {
		t.Errorf("Rebase(Year 7 -> Month) = %d, want 73", got)
	}
	if got := c.Rebase(Year, 7, Day); got != 2193 {
		t.Errorf("Rebase(Year 7 -> Day) = %d, want 2193", got)
	}
	if got := c.Rebase(Day, 1, Year); got != 1 {
		t.Errorf("Rebase(Day 1 -> Year) = %d, want 1", got)
	}
}

func TestNewRejectsInvalidEpoch(t *testing.T) {
	if _, err := New(Civil{1987, 2, 30}); err == nil {
		t.Error("New should reject invalid epoch")
	}
}

func TestEpochSeconds(t *testing.T) {
	c := chron1987(t)
	if s := c.EpochSecondsOf(Civil{1987, 1, 2}); s != SecondsPerDay {
		t.Errorf("EpochSecondsOf(+1d) = %d", s)
	}
	if d := c.CivilOf(-1); d != (Civil{1986, 12, 31}) {
		t.Errorf("CivilOf(-1) = %v", d)
	}
}

// A mid-year, mid-week epoch: the paper assumes Jan 1 but the chronology
// must not.
func TestMidYearEpoch(t *testing.T) {
	c := MustNew(Civil{Year: 1990, Month: 7, Day: 18}) // a Wednesday
	if c.DayTick(Civil{1990, 7, 18}) != 1 {
		t.Error("epoch day tick")
	}
	// Month tick 1 is July 1990, starting June 30 days before the epoch.
	if d := c.CivilOf(c.UnitStart(Month, 1)); d != (Civil{1990, 7, 1}) {
		t.Errorf("month 1 starts %v", d)
	}
	// Year tick 1 is 1990, starting ~198 days before the epoch.
	if d := c.CivilOf(c.UnitStart(Year, 1)); d != (Civil{1990, 1, 1}) {
		t.Errorf("year 1 starts %v", d)
	}
	// The week containing the epoch starts on the preceding Monday.
	if d := c.CivilOf(c.UnitStart(Week, 1)); d != (Civil{1990, 7, 16}) {
		t.Errorf("week 1 starts %v", d)
	}
	// Ticks before the epoch are negative.
	if got := c.DayTick(Civil{1990, 7, 17}); got != -1 {
		t.Errorf("day before epoch = %d", got)
	}
	if got := c.TickAt(Month, c.EpochSecondsOf(Civil{1990, 6, 30})); got != -1 {
		t.Errorf("June 1990 month tick = %d", got)
	}
	// Round trips still hold at every granularity.
	for _, g := range Granularities() {
		for _, tick := range []Tick{-5, -1, 1, 2, 9} {
			start := c.UnitStart(g, tick)
			if got := c.TickAt(g, start); got != tick {
				t.Errorf("%v tick %d round trip = %d", g, tick, got)
			}
		}
	}
}
