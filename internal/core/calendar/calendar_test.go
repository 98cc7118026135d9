package calendar

import (
	"strings"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

func iv(lo, hi int64) interval.Interval { return interval.Must(lo, hi) }

func chron1993(t testing.TB) *chronology.Chronology {
	t.Helper()
	return chronology.MustNew(chronology.Civil{Year: 1993, Month: 1, Day: 1})
}

func chron1987(t testing.TB) *chronology.Chronology {
	t.Helper()
	return chronology.MustNew(chronology.DefaultEpoch)
}

// weeks1993 returns the paper's WEEKS calendar for 1993 in day ticks:
// {(-4,3),(4,10),(11,17),...}.
func weeks1993(t testing.TB, ch *chronology.Chronology) *Calendar {
	t.Helper()
	c, err := Generate(ch, chronology.Week, chronology.Day, 1, 365)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// months1993 returns the paper's Year-1993 calendar of months in day ticks:
// {(1,31),(32,59),(60,90),...}.
func months1993(t testing.TB, ch *chronology.Chronology) *Calendar {
	t.Helper()
	c, err := Generate(ch, chronology.Month, chronology.Day, 1, 365)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFromIntervalsValidation(t *testing.T) {
	if _, err := FromIntervals(chronology.Day, []interval.Interval{iv(1, 5), iv(3, 9)}); err != nil {
		t.Errorf("overlapping but ordered intervals are allowed: %v", err)
	}
	if _, err := FromIntervals(chronology.Day, []interval.Interval{iv(5, 9), iv(1, 3)}); err == nil {
		t.Error("out-of-order intervals should be rejected")
	}
	if _, err := FromIntervals(chronology.Day, []interval.Interval{{Lo: 0, Hi: 3}}); err == nil {
		t.Error("zero endpoint should be rejected")
	}
	if _, err := FromIntervals(chronology.Granularity(99), nil); err == nil {
		t.Error("invalid granularity should be rejected")
	}
}

func TestOrderAndShape(t *testing.T) {
	c1 := MustFromIntervals(chronology.Day, iv(1, 3), iv(5, 9))
	if c1.Order() != 1 || c1.Len() != 2 || c1.IsEmpty() {
		t.Error("order-1 shape wrong")
	}
	c2, err := FromSubs([]*Calendar{c1, MustFromIntervals(chronology.Day, iv(20, 25))})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Order() != 2 || c2.Len() != 2 {
		t.Error("order-2 shape wrong")
	}
	if c2.Cardinality() != 3 {
		t.Errorf("Cardinality = %d", c2.Cardinality())
	}
	flat := c2.Flatten()
	if flat.Order() != 1 || flat.Len() != 3 {
		t.Errorf("Flatten = %v", flat)
	}
	if got := c2.String(); got != "{{(1,3),(5,9)},{(20,25)}}" {
		t.Errorf("String = %q", got)
	}
}

func TestFromSubsValidation(t *testing.T) {
	day := MustFromIntervals(chronology.Day, iv(1, 3))
	week := MustFromIntervals(chronology.Week, iv(1, 3))
	if _, err := FromSubs(nil); err == nil {
		t.Error("empty subs should be rejected")
	}
	if _, err := FromSubs([]*Calendar{day, week}); err == nil {
		t.Error("mixed granularity subs should be rejected")
	}
	if _, err := FromSubs([]*Calendar{day, nil}); err == nil {
		t.Error("nil sub should be rejected")
	}
	two, _ := FromSubs([]*Calendar{day})
	if _, err := FromSubs([]*Calendar{day, two}); err == nil {
		t.Error("mixed order subs should be rejected")
	}
}

func TestFromPoints(t *testing.T) {
	hol, err := FromPoints(chronology.Day, []chronology.Tick{31, 90})
	if err != nil {
		t.Fatal(err)
	}
	if hol.String() != "{(31,31),(90,90)}" {
		t.Errorf("holidays = %v", hol)
	}
	if _, err := FromPoints(chronology.Day, []chronology.Tick{0}); err == nil {
		t.Error("tick 0 point should be rejected")
	}
}

func TestIntervalsPanicsOnHighOrder(t *testing.T) {
	c2, _ := FromSubs([]*Calendar{MustFromIntervals(chronology.Day, iv(1, 2))})
	defer func() {
		if recover() == nil {
			t.Error("Intervals on order-2 should panic")
		}
	}()
	c2.Intervals()
}

// §3.1: WEEKS : during : Jan-1993 ≡ {(4,10),(11,17),(18,24),(25,31)}.
func TestPaperStrictForeachDuring(t *testing.T) {
	ch := chron1993(t)
	weeks := weeks1993(t, ch)
	got, err := ForeachInterval(weeks, interval.During, true, iv(1, 31))
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromIntervals(chronology.Day, iv(4, 10), iv(11, 17), iv(18, 24), iv(25, 31))
	if !got.Equal(want) {
		t.Errorf("WEEKS:during:Jan-1993 = %v, want %v", got, want)
	}
}

// §3.1: WEEKS : overlaps : Jan-1993 ≡ {(1,3),(4,10),(11,17),(18,24),(25,31)}.
func TestPaperStrictForeachOverlaps(t *testing.T) {
	ch := chron1993(t)
	weeks := weeks1993(t, ch)
	got, err := ForeachInterval(weeks, interval.Overlaps, true, iv(1, 31))
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromIntervals(chronology.Day, iv(1, 3), iv(4, 10), iv(11, 17), iv(18, 24), iv(25, 31))
	if !got.Equal(want) {
		t.Errorf("WEEKS:overlaps:Jan-1993 = %v, want %v", got, want)
	}
}

// §3.1: WEEKS . overlaps . Jan-1993 ≡ {(-4,3),(4,10),(11,17),(18,24),(25,31)}.
func TestPaperRelaxedForeachOverlaps(t *testing.T) {
	ch := chron1993(t)
	weeks := weeks1993(t, ch)
	got, err := ForeachInterval(weeks, interval.Overlaps, false, iv(1, 31))
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromIntervals(chronology.Day, iv(-4, 3), iv(4, 10), iv(11, 17), iv(18, 24), iv(25, 31))
	if !got.Equal(want) {
		t.Errorf("WEEKS.overlaps.Jan-1993 = %v, want %v", got, want)
	}
}

// §3.1: WEEKS : during : Year-1993 is an order-2 calendar of the weeks
// completely contained in every month of 1993.
func TestPaperForeachCalendarArg(t *testing.T) {
	ch := chron1993(t)
	weeks := weeks1993(t, ch)
	months := months1993(t, ch)
	got, err := Foreach(weeks, interval.During, true, months)
	if err != nil {
		t.Fatal(err)
	}
	if got.Order() != 2 || got.Len() != 12 {
		t.Fatalf("order %d len %d", got.Order(), got.Len())
	}
	wantPrefix := "{{(4,10),(11,17),(18,24),(25,31)}," +
		"{(32,38),(39,45),(46,52),(53,59)}," +
		"{(60,66),(67,73),(74,80),(81,87)}," +
		"{(95,101),(102,108),(109,115)}"
	if !strings.HasPrefix(got.String(), wantPrefix) {
		t.Errorf("WEEKS:during:Year-1993 = %v\nwant prefix %v", got, wantPrefix)
	}
}

// §3.1: a single-interval calendar third argument behaves as an interval:
// WEEKS : during : {(1,31)} is order-1.
func TestForeachSingleIntervalCalendarArg(t *testing.T) {
	ch := chron1993(t)
	weeks := weeks1993(t, ch)
	jan := MustFromIntervals(chronology.Day, iv(1, 31))
	got, err := Foreach(weeks, interval.During, true, jan)
	if err != nil {
		t.Fatal(err)
	}
	if got.Order() != 1 {
		t.Fatalf("order = %d, want 1", got.Order())
	}
	want := MustFromIntervals(chronology.Day, iv(4, 10), iv(11, 17), iv(18, 24), iv(25, 31))
	if !got.Equal(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestForeachValidation(t *testing.T) {
	ch := chron1993(t)
	weeks := weeks1993(t, ch)
	weekGran := MustFromIntervals(chronology.Week, iv(1, 4))
	if _, err := Foreach(weeks, interval.During, true, weekGran); err == nil {
		t.Error("granularity mismatch should be rejected")
	}
	o2, _ := FromSubs([]*Calendar{MustFromIntervals(chronology.Day, iv(1, 2), iv(3, 4))})
	if _, err := Foreach(weeks, interval.During, true, o2); err == nil {
		t.Error("order-2 third argument should be rejected")
	}
	if _, err := ForeachInterval(weeks, interval.ListOp(99), true, iv(1, 31)); err == nil {
		t.Error("invalid listop should be rejected")
	}
	if _, err := ForeachInterval(weeks, interval.During, true, interval.Interval{Lo: 3, Hi: 1}); err == nil {
		t.Error("invalid interval should be rejected")
	}
	got, err := Foreach(weeks, interval.During, true, Empty(chronology.Day))
	if err != nil || !got.IsEmpty() {
		t.Error("empty third argument should give empty result")
	}
}

// §3.1: [3]/WEEKS:overlaps:Jan-1993 ≡ {(11,17)}.
func TestPaperSelectionSingle(t *testing.T) {
	ch := chron1993(t)
	weeks := weeks1993(t, ch)
	overlap, err := ForeachInterval(weeks, interval.Overlaps, true, iv(1, 31))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Select(SelectIndex(3), overlap)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(MustFromIntervals(chronology.Day, iv(11, 17))) {
		t.Errorf("[3]/... = %v", got)
	}
}

// §3.1: [3]/WEEKS:overlaps:Year-1993 ≡ {(11,17),(46,52),(74,80),(102,108),...}
// — selection on an order-2 calendar picks the 3rd week of each month and
// collapses to order 1.
func TestPaperSelectionOrder2(t *testing.T) {
	ch := chron1993(t)
	weeks := weeks1993(t, ch)
	months := months1993(t, ch)
	o2, err := Foreach(weeks, interval.Overlaps, true, months)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Select(SelectIndex(3), o2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Order() != 1 {
		t.Fatalf("order = %d, want 1", got.Order())
	}
	wantPrefix := "{(11,17),(46,52),(74,80),(102,108)"
	if !strings.HasPrefix(got.String(), wantPrefix) {
		t.Errorf("[3]/WEEKS:overlaps:Year-1993 = %v, want prefix %v", got, wantPrefix)
	}
}

func TestSelectionForms(t *testing.T) {
	c := MustFromIntervals(chronology.Day, iv(1, 1), iv(2, 2), iv(3, 3), iv(4, 4), iv(5, 5))
	cases := []struct {
		sel  Selection
		want string
	}{
		{SelectIndex(1), "{(1,1)}"},
		{SelectIndex(-2), "{(4,4)}"},
		{SelectLast(), "{(5,5)}"},
		{SelectList(1, 3, 5), "{(1,1),(3,3),(5,5)}"},
		{SelectRange(2, 4), "{(2,2),(3,3),(4,4)}"},
		{SelectRange(4, 99), "{(4,4),(5,5)}"}, // clamped
		{SelectIndex(9), "{}"},                // out of range selects nothing
		{SelectIndex(-9), "{}"},
	}
	for _, tc := range cases {
		got, err := Select(tc.sel, c)
		if err != nil {
			t.Errorf("%v: %v", tc.sel, err)
			continue
		}
		if got.String() != tc.want {
			t.Errorf("%v/C = %v, want %v", tc.sel, got, tc.want)
		}
	}
}

func TestSelectionValidation(t *testing.T) {
	c := MustFromIntervals(chronology.Day, iv(1, 1))
	if _, err := Select(Selection{}, c); err == nil {
		t.Error("empty predicate should be rejected")
	}
	if _, err := Select(SelectIndex(0), c); err == nil {
		t.Error("position 0 should be rejected")
	}
	if _, err := Select(SelectRange(0, 3), c); err == nil {
		t.Error("range endpoint 0 should be rejected")
	}
}

func TestSelectionStringAndSingle(t *testing.T) {
	if s := SelectLast().String(); s != "[n]" {
		t.Errorf("String = %q", s)
	}
	if s := SelectList(1, -2).String(); s != "[1,-2]" {
		t.Errorf("String = %q", s)
	}
	if s := SelectRange(2, 5).String(); s != "[2-5]" {
		t.Errorf("String = %q", s)
	}
	if !SelectLast().Single() || !SelectIndex(-1).Single() || SelectList(1, 2).Single() || SelectRange(1, 2).Single() {
		t.Error("Single wrong")
	}
}

// Multi-element selection on an order-2 calendar preserves order 2.
func TestSelectionMultiKeepsOrder(t *testing.T) {
	ch := chron1993(t)
	weeks := weeks1993(t, ch)
	months := months1993(t, ch)
	o2, err := Foreach(weeks, interval.During, true, months)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Select(SelectList(1, 2), o2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Order() != 2 {
		t.Fatalf("order = %d, want 2", got.Order())
	}
	if first := MustFromIntervals(chronology.Day, got.Group(0)...); first.String() != "{(4,10),(11,17)}" {
		t.Errorf("first month = %v", first)
	}
}
