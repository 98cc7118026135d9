package multical

import (
	"strings"
	"testing"
	"testing/quick"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/store"
)

func chron(t testing.TB) *chronology.Chronology {
	t.Helper()
	return chronology.MustNew(chronology.DefaultEpoch)
}

func d(y, m, day int) chronology.Civil { return chronology.Civil{Year: y, Month: m, Day: day} }

// An event composes from and decomposes into a calendar's divisions; fields
// that name no instant are refused.
func TestEventIntervalBasics(t *testing.T) {
	g := Gregorian{Chron: chron(t)}
	e, err := g.FromFields(FieldSet{"year": 1993, "month": 7, "day": 15, "hour": 9, "minute": 30})
	if err != nil {
		t.Fatal(err)
	}
	f := g.Fields(e)
	if f["year"] != 1993 || f["month"] != 7 || f["day"] != 15 || f["hour"] != 9 || f["minute"] != 30 || f["second"] != 0 {
		t.Errorf("fields = %v", f)
	}
	for _, bad := range []FieldSet{{"year": 1993, "month": 2, "day": 30}, {"year": 1993, "hour": 24}} {
		if _, err := g.FromFields(bad); err == nil {
			t.Errorf("FromFields(%v) should fail", bad)
		}
	}
}

// The variable Month span: Jan 31 + 1 month clamps to Feb 28, exactly the
// semantics MultiCal attributes to the Gregorian calendar's variable spans
// — and the place §5 says the two proposals overlap.
func TestVariableSpanArithmetic(t *testing.T) {
	ch := chron(t)
	g := Gregorian{Chron: ch}
	jan31 := Event{At: ch.EpochSecondsOf(d(1993, 1, 31))}
	feb := g.AddSpan(jan31, SpanMonth)
	if got := ch.CivilOf(feb.At); got != d(1993, 2, 28) {
		t.Errorf("Jan 31 + 1 month = %v", got)
	}
	leap := g.AddSpan(Event{At: ch.EpochSecondsOf(d(1988, 1, 31))}, SpanMonth)
	if got := ch.CivilOf(leap.At); got != d(1988, 2, 29) {
		t.Errorf("leap clamp = %v", got)
	}
	// A year is 12 variable months.
	y := g.AddSpan(jan31, SpanYear)
	if got := ch.CivilOf(y.At); got != d(1994, 1, 31) {
		t.Errorf("Jan 31 + 1 year = %v", got)
	}
	// Fixed spans preserve time of day.
	e := g.AddSpan(Event{At: 3600}, SpanDay)
	if e.At != 86400+3600 {
		t.Errorf("fixed day add = %d", e.At)
	}
	// Negative months.
	back := g.AddSpan(jan31, Span{Months: -2})
	if got := ch.CivilOf(back.At); got != d(1992, 11, 30) {
		t.Errorf("Jan 31 - 2 months = %v", got)
	}
}

func TestSpanRoundTripProperty(t *testing.T) {
	ch := chron(t)
	g := Gregorian{Chron: ch}
	f := func(daySec uint32, months int8) bool {
		e := Event{At: int64(daySec)}
		// Anchor on a day <= 28 so the clamp never loses information.
		fields := g.Fields(e)
		if fields["day"] > 28 {
			return true
		}
		s := Span{Months: int64(months)}
		back := g.AddSpan(g.AddSpan(e, s), Span{Months: -int64(months)})
		return back == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// MultiCal's core feature: the same event has different field values under
// different division systems of the same calendric system.
func TestMultipleCalendars(t *testing.T) {
	ch := chron(t)
	g := Gregorian{Chron: ch}
	fc := Fiscal{Chron: ch}
	e, _ := g.FromFields(FieldSet{"year": 1993, "month": 11, "day": 5})
	gf, ff := g.Fields(e), fc.Fields(e)
	if gf["year"] != 1993 || gf["month"] != 11 {
		t.Errorf("gregorian fields = %v", gf)
	}
	// November 1993 is fiscal month 2 of fiscal year 1994, fiscal Q1.
	if ff["fiscal-year"] != 1994 || ff["fiscal-month"] != 2 || ff["fiscal-quarter"] != 1 {
		t.Errorf("fiscal fields = %v", ff)
	}
	// And a spring event: April 1993 is fiscal month 7 of FY 1993, Q3.
	e2, _ := g.FromFields(FieldSet{"year": 1993, "month": 4, "day": 1})
	ff2 := fc.Fields(e2)
	if ff2["fiscal-year"] != 1993 || ff2["fiscal-month"] != 7 || ff2["fiscal-quarter"] != 3 {
		t.Errorf("spring fiscal fields = %v", ff2)
	}
}

// Multi-language output — MultiCal's I/O focus.
func TestMultiLanguageFormatting(t *testing.T) {
	ch := chron(t)
	g := Gregorian{Chron: ch}
	e, _ := g.FromFields(FieldSet{"year": 1993, "month": 3, "day": 7, "hour": 14, "minute": 5, "second": 9})
	cases := []struct {
		lang   Language
		layout string
		want   string
	}{
		{English, "%d %B %Y", "07 March 1993"},
		{German, "%d. %B %Y", "07. März 1993"},
		{French, "%d %B %Y", "07 mars 1993"},
		{English, "%Y-%m-%d %H:%M:%S", "1993-03-07 14:05:09"},
		{English, "100%%", "100%"},
	}
	for _, tc := range cases {
		got, err := FormatEvent(g, tc.lang, tc.layout, e)
		if err != nil {
			t.Errorf("%q: %v", tc.layout, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%q = %q, want %q", tc.layout, got, tc.want)
		}
	}
	fc := Fiscal{Chron: ch}
	got, err := FormatEvent(fc, English, "FY%f M%m", e)
	if err != nil || got != "FY1993 M06" { // March = fiscal month 6
		t.Errorf("fiscal format = %q, %v", got, err)
	}
	if _, err := FormatEvent(fc, English, "%B", e); err == nil {
		t.Error("fiscal calendar has no month names")
	}
	if _, err := FormatEvent(g, English, "%Q", e); err == nil {
		t.Error("unknown directive should fail")
	}
	if _, err := FormatEvent(g, English, "dangling %", e); err == nil {
		t.Error("trailing %% should fail")
	}
	if _, err := FormatEvent(g, Language(99), "%Y", e); err == nil {
		t.Error("unknown language should fail")
	}
}

// The §5 comparison made executable.
//
// (1) Where the proposals overlap: MultiCal's variable Month span agrees
// with the main system's MONTHS calendar — stepping an event month by month
// lands on the same month boundaries the MONTHS calendar generates.
func TestOverlapWithCalendarSystem(t *testing.T) {
	ch := chron(t)
	mgr, err := caldb.New(store.NewDB(), ch)
	if err != nil {
		t.Fatal(err)
	}
	// First day of every month of 1993, in day ticks.
	monthStarts, err := mgr.EvalExpr("[1]/DAYS:during:MONTHS", d(1993, 1, 1), d(1993, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	g := Gregorian{Chron: ch}
	e, _ := g.FromFields(FieldSet{"year": 1993, "month": 1, "day": 1})
	for i, iv := range monthStarts.Flatten().Intervals() {
		if got := ch.TickAt(chronology.Day, e.At); got != iv.Lo {
			t.Errorf("month %d: span-stepped start %d != calendar start %d", i, got, iv.Lo)
		}
		e = g.AddSpan(e, SpanMonth)
	}
}

// (2) Where they differ: "the third Friday of every month" is a one-line
// nested-interval-list expression in the paper's system; in MultiCal there
// is no such object, and the computation must be hand-coded against
// events/spans. Both routes must agree — and the hand-coded route is the
// baseline's cost.
func TestThirdFridayExpressibility(t *testing.T) {
	ch := chron(t)
	mgr, err := caldb.New(store.NewDB(), ch)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's system: one expression.
	cal, err := mgr.EvalExpr("[3]/([5]/DAYS:during:WEEKS):overlaps:MONTHS",
		d(1993, 1, 1), d(1993, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	var algebra []chronology.Civil
	for _, iv := range cal.Flatten().Intervals() {
		algebra = append(algebra, ch.CivilOfDayTick(iv.Lo))
	}

	// MultiCal: hand-rolled iteration over events and spans.
	g := Gregorian{Chron: ch}
	var manual []chronology.Civil
	cursor, _ := g.FromFields(FieldSet{"year": 1993, "month": 1, "day": 1})
	for m := 0; m < 12; m++ {
		fridays := 0
		e := cursor
		for {
			day := ch.CivilOf(e.At)
			if day.Weekday() == chronology.Friday {
				fridays++
				if fridays == 3 {
					manual = append(manual, day)
					break
				}
			}
			e = g.AddSpan(e, SpanDay)
		}
		cursor = g.AddSpan(cursor, SpanMonth)
	}

	if len(algebra) != 12 || len(manual) != 12 {
		t.Fatalf("algebra %d, manual %d third Fridays", len(algebra), len(manual))
	}
	for i := range algebra {
		if algebra[i] != manual[i] {
			t.Errorf("month %d: algebra %v != manual %v", i+1, algebra[i], manual[i])
		}
	}
	if !strings.Contains("[3]/([5]/DAYS:during:WEEKS):overlaps:MONTHS", "WEEKS") {
		t.Fatal("sanity")
	}
}
