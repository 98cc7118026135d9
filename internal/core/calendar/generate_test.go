package calendar

import (
	"testing"
	"testing/quick"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// §3.2: generate(YEARS, DAYS, [Jan 1 1987, Jan 3 1992]) ≡
// {(1,365),(366,731),(732,1096),(1097,1461),(1462,1826),(1827,1829)}.
func TestPaperGenerate(t *testing.T) {
	ch := chron1987(t)
	got, err := GenerateCivil(ch, chronology.Year, chronology.Day,
		chronology.Civil{Year: 1987, Month: 1, Day: 1},
		chronology.Civil{Year: 1992, Month: 1, Day: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromIntervals(chronology.Day,
		iv(1, 365), iv(366, 731), iv(732, 1096), iv(1097, 1461), iv(1462, 1826), iv(1827, 1829))
	if !got.Equal(want) {
		t.Errorf("generate(YEARS,DAYS,...) = %v\nwant %v", got, want)
	}
}

// §3.1: the 1993 WEEKS calendar begins {(-4,3),(4,10),...}: the unit
// straddling the window start keeps its true lower bound.
func TestGenerateKeepsStraddlingStart(t *testing.T) {
	ch := chron1993(t)
	weeks := weeks1993(t, ch)
	if weeks.Interval(0) != iv(-4, 3) {
		t.Errorf("first week = %v, want (-4,3)", weeks.Interval(0))
	}
	if weeks.Interval(1) != iv(4, 10) {
		t.Errorf("second week = %v, want (4,10)", weeks.Interval(1))
	}
}

func TestGenerateMonthsAndQuarters(t *testing.T) {
	ch := chron1993(t)
	months := months1993(t, ch)
	want := "{(1,31),(32,59),(60,90),(91,120),(121,151),(152,181),(182,212),(213,243),(244,273),(274,304),(305,334),(335,365)}"
	if months.String() != want {
		t.Errorf("months 1993 = %v", months)
	}
	// §3.2: QUARTERS = caloperate(MONTHS, *; 3) ≡ {(1,90),(91,181),...}.
	q, err := Caloperate(months, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "{(1,90),(91,181),(182,273),(274,365)}" {
		t.Errorf("quarters = %v", q)
	}
}

// §3.2: caloperate(days-of-year, *; 7) ≡ {(1,7),(8,14),(15,21),...}.
func TestPaperCaloperateWeeks(t *testing.T) {
	ch := chron1987(t)
	days, err := Generate(ch, chronology.Day, chronology.Day, 1, 365)
	if err != nil {
		t.Fatal(err)
	}
	weeks, err := Caloperate(days, []int{7})
	if err != nil {
		t.Fatal(err)
	}
	if weeks.Interval(0) != iv(1, 7) || weeks.Interval(1) != iv(8, 14) || weeks.Interval(2) != iv(15, 21) {
		t.Errorf("caloperate weeks = %v", weeks)
	}
	// 365 = 52*7 + 1: a final partial group is kept.
	if weeks.Len() != 53 || weeks.Interval(52) != iv(365, 365) {
		t.Errorf("last partial group wrong: len=%d last=%v", weeks.Len(), weeks.Interval(weeks.Len()-1))
	}
}

func TestCaloperateCircularCounts(t *testing.T) {
	c := MustFromIntervals(chronology.Day,
		iv(1, 1), iv(2, 2), iv(3, 3), iv(4, 4), iv(5, 5), iv(6, 6), iv(7, 7))
	// Alternating groups of 2 and 1: (1,2),(3,3),(4,5),(6,6),(7,7).
	got, err := Caloperate(c, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "{(1,2),(3,3),(4,5),(6,6),(7,7)}" {
		t.Errorf("caloperate(2,1) = %v", got)
	}
}

func TestCaloperateValidation(t *testing.T) {
	c := MustFromIntervals(chronology.Day, iv(1, 1))
	if _, err := Caloperate(c, nil); err == nil {
		t.Error("empty counts should be rejected")
	}
	if _, err := Caloperate(c, []int{0}); err == nil {
		t.Error("zero count should be rejected")
	}
	if _, err := Caloperate(c, []int{-2}); err == nil {
		t.Error("negative count should be rejected")
	}
	o2, _ := FromSubs([]*Calendar{c})
	if _, err := Caloperate(o2, []int{1}); err == nil {
		t.Error("order-2 input should be rejected")
	}
}

func TestGenerateValidation(t *testing.T) {
	ch := chron1987(t)
	if _, err := Generate(ch, chronology.Day, chronology.Year, 1, 2); err == nil {
		t.Error("expressing DAYS in YEARS units should be rejected")
	}
	if _, err := Generate(ch, chronology.Year, chronology.Day, 0, 10); err == nil {
		t.Error("tick-0 window start should be rejected")
	}
	if _, err := Generate(ch, chronology.Year, chronology.Day, 10, 1); err == nil {
		t.Error("reversed window should be rejected")
	}
	if _, err := Generate(ch, chronology.Granularity(99), chronology.Day, 1, 10); err == nil {
		t.Error("invalid granularity should be rejected")
	}
	if _, err := GenerateCivil(ch, chronology.Year, chronology.Day,
		chronology.Civil{Year: 1993, Month: 2, Day: 30}, chronology.Civil{Year: 1993, Month: 3, Day: 1}); err == nil {
		t.Error("invalid civil date should be rejected")
	}
	if _, err := GenerateCivil(ch, chronology.Year, chronology.Day,
		chronology.Civil{Year: 1994, Month: 1, Day: 1}, chronology.Civil{Year: 1993, Month: 1, Day: 1}); err == nil {
		t.Error("reversed civil window should be rejected")
	}
}

func TestGenerateIdentityGranularity(t *testing.T) {
	ch := chron1987(t)
	days, err := Generate(ch, chronology.Day, chronology.Day, -3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if days.String() != "{(-3,-3),(-2,-2),(-1,-1),(1,1),(2,2),(3,3)}" {
		t.Errorf("days = %v", days)
	}
}

func TestGenerateNegativeWindow(t *testing.T) {
	ch := chron1987(t)
	// The year before the epoch is year tick -1 (1986).
	years, err := Generate(ch, chronology.Year, chronology.Day, -365, -1)
	if err != nil {
		t.Fatal(err)
	}
	if years.Len() != 1 || years.Interval(0) != iv(-365, -1) {
		t.Errorf("1986 = %v", years)
	}
}

// Property: every day tick in the window is covered by exactly one generated
// unit, and units are sorted and non-overlapping for calendar-partition
// granularities.
func TestGeneratePartitionProperty(t *testing.T) {
	ch := chron1987(t)
	grans := []chronology.Granularity{chronology.Week, chronology.Month, chronology.Year}
	f := func(startOff int16, span uint8) bool {
		ts := chronology.TickFromOffset(int64(startOff))
		te := chronology.AddTicks(ts, int64(span))
		for _, g := range grans {
			c, err := Generate(ch, g, chronology.Day, ts, te)
			if err != nil {
				return false
			}
			ivs := c.Intervals()
			for i, ivl := range ivs {
				if ivl.Check() != nil {
					return false
				}
				if i > 0 && chronology.NextTick(ivs[i-1].Hi) != ivl.Lo {
					return false // units must tile contiguously
				}
			}
			// Window coverage: first unit reaches ts, last ends exactly at te.
			if len(ivs) == 0 || ivs[0].Lo > ts || ivs[len(ivs)-1].Hi != te {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Property: caloperate with count 1 is the identity on contiguous calendars.
func TestCaloperateIdentityProperty(t *testing.T) {
	ch := chron1987(t)
	f := func(startOff int16, span uint8) bool {
		ts := chronology.TickFromOffset(int64(startOff))
		te := chronology.AddTicks(ts, int64(span))
		c, err := Generate(ch, chronology.Day, chronology.Day, ts, te)
		if err != nil {
			return false
		}
		got, err := Caloperate(c, []int{1})
		if err != nil {
			return false
		}
		return got.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetOpsOnCalendars(t *testing.T) {
	ldom := MustFromIntervals(chronology.Day, iv(31, 31), iv(59, 59), iv(90, 90))
	hol := MustFromIntervals(chronology.Day, iv(31, 31), iv(90, 90))
	lastBus := MustFromIntervals(chronology.Day, iv(30, 30), iv(88, 88))

	ldomHol, err := Intersect(ldom, hol)
	if err != nil {
		t.Fatal(err)
	}
	if ldomHol.String() != "{(31,31),(90,90)}" {
		t.Errorf("intersects = %v", ldomHol)
	}
	d, err := Diff(ldom, ldomHol)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Union(d, lastBus)
	if err != nil {
		t.Fatal(err)
	}
	// §3.3 EMP-DAYS: {(30,30),(59,59),(88,88)}.
	if got.String() != "{(30,30),(59,59),(88,88)}" {
		t.Errorf("EMP-DAYS = %v", got)
	}

	// The pieces of an overlapping operand step back — {(1,4),(6,10),(2,3)} —
	// and are themselves a left operand: the second cut reaches (2,3).
	once, err := Diff(MustFromIntervals(chronology.Day, iv(1, 10), iv(2, 3)), MustFromIntervals(chronology.Day, iv(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Diff(once, MustFromIntervals(chronology.Day, iv(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if once.String() != "{(1,4),(6,10),(2,3)}" || twice.String() != "{(1,1),(3,4),(6,10),(3,3)}" {
		t.Errorf("Diff of Diff over an overlapping operand = %v, then %v", once, twice)
	}
}

func TestSetOpsValidation(t *testing.T) {
	d := MustFromIntervals(chronology.Day, iv(1, 5))
	w := MustFromIntervals(chronology.Week, iv(1, 5))
	o2, _ := FromSubs([]*Calendar{d})
	if _, err := Union(d, w); err == nil {
		t.Error("granularity mismatch should be rejected")
	}
	if _, err := Diff(o2, d); err == nil {
		t.Error("order-2 operand should be rejected")
	}
	if _, err := Intersect(d, o2); err == nil {
		t.Error("order-2 operand should be rejected")
	}
}

func TestClipToInterval(t *testing.T) {
	c := MustFromIntervals(chronology.Day, iv(-4, 3), iv(4, 10), iv(40, 50))
	got, err := ClipToInterval(c, iv(1, 31))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "{(1,3),(4,10)}" {
		t.Errorf("clip = %v", got)
	}
	if _, err := ClipToInterval(c, interval.Interval{Lo: 5, Hi: 1}); err == nil {
		t.Error("invalid clip interval should be rejected")
	}
}

func TestHullAndToSet(t *testing.T) {
	c := MustFromIntervals(chronology.Day, iv(1, 5), iv(3, 9), iv(20, 22))
	h, ok := c.Hull()
	if !ok || h != iv(1, 22) {
		t.Errorf("Hull = %v,%v", h, ok)
	}
	s := c.ToSet()
	if s.String() != "{(1,9),(20,22)}" {
		t.Errorf("ToSet = %v", s)
	}
	if _, ok := Empty(chronology.Day).Hull(); ok {
		t.Error("empty hull should report false")
	}
}

func TestEqualEdgeCases(t *testing.T) {
	a := MustFromIntervals(chronology.Day, iv(1, 5))
	if !a.Equal(a) {
		t.Error("self equality")
	}
	if a.Equal(nil) {
		t.Error("nil inequality")
	}
	var nilCal *Calendar
	if !nilCal.Equal(nil) {
		t.Error("nil == nil")
	}
	b := MustFromIntervals(chronology.Week, iv(1, 5))
	if a.Equal(b) {
		t.Error("granularity must distinguish")
	}
	o2a, _ := FromSubs([]*Calendar{a})
	o2b, _ := FromSubs([]*Calendar{MustFromIntervals(chronology.Day, iv(1, 6))})
	if o2a.Equal(o2b) {
		t.Error("different subs must differ")
	}
}
