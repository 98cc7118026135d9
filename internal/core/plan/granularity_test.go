package plan

import (
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// Sub-day granularities through the full pipeline: trading hours as an
// HOURS calendar. "[10,11,12,13,14,15,16]/HOURS:during:DAYS" is hours 10-16
// of every day; the plan granularity must infer to HOURS.
func TestSubDayGranularityPipeline(t *testing.T) {
	env, _ := env1987(t)
	e := expr(t, "[10,11,12,13,14,15,16]/HOURS:during:DAYS")
	prepped, gran, err := Prepare(env, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gran != chronology.Hour {
		t.Fatalf("inferred granularity = %v, want HOURS", gran)
	}
	// Two days' worth of hours.
	p, err := Compile(env, prepped, nil, gran, interval.Must(1, 48))
	if err != nil {
		t.Fatal(err)
	}
	cal, err := p.Exec(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	flat := cal.Flatten()
	if flat.Len() != 14 { // 7 hours on each of 2 days
		t.Fatalf("trading hours = %v", flat)
	}
	// Day 1's trading hours are hour ticks 10..16.
	if flat.Interval(0) != interval.Must(10, 10) || flat.Interval(6) != interval.Must(16, 16) {
		t.Errorf("first day's hours = %v", flat)
	}
	// Day 2's begin at hour 34 (24+10).
	if flat.Interval(7) != interval.Must(34, 34) {
		t.Errorf("second day's first hour = %v", flat.Interval(7))
	}
}

func TestMinutesWithinHours(t *testing.T) {
	env, _ := env1987(t)
	// The first minute of every hour over three hours.
	got, err := EvaluateWindow(env, expr(t, "[1]/MINUTES:during:HOURS"),
		chronology.Minute, interval.Must(1, 180))
	if err != nil {
		t.Fatal(err)
	}
	flat := got.Flatten()
	if flat.Len() != 3 || flat.Interval(0) != interval.Must(1, 1) || flat.Interval(1) != interval.Must(61, 61) {
		t.Errorf("first minutes = %v", flat)
	}
}

// Coarse granularities: decades within the century, and year selection
// within decades.
func TestCoarseGranularityPipeline(t *testing.T) {
	env, _ := env1987(t)
	// Decades overlapping 1987-2009, in year ticks.
	got, err := Evaluate(env, expr(t, "DECADES:during:CENTURY"),
		d(1987, 1, 1), d(2009, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	// The window touches the 1900s and 2000s centuries; results are not
	// window-clipped, so every decade of both centuries appears: order 2
	// with 2 sub-calendars of 10 decades each, in decade ticks.
	if got.Order() != 2 || got.Len() != 2 {
		t.Fatalf("shape = order %d len %d", got.Order(), got.Len())
	}
	flat := got.Flatten()
	if flat.Len() != 20 {
		t.Fatalf("decades = %v", flat)
	}
	ch := env.Chron
	// The first decade of the 1900s century is decade tick -8 (the 1980s
	// decade containing the epoch is tick 1).
	if want := ch.TickAt(chronology.Decade, ch.EpochSecondsOf(d(1900, 1, 1))); flat.Interval(0).Lo != want {
		t.Errorf("first decade tick = %v, want %d", flat.Interval(0), want)
	}
	// The 3rd year of every decade in the window.
	got, err = Evaluate(env, expr(t, "[3]/YEARS:during:DECADES"),
		d(1987, 1, 1), d(2009, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	years := got.Flatten()
	for _, iv := range years.Intervals() {
		y := ch.YearOfTick(iv.Lo)
		if y%10 != 2 { // the 3rd year of the 1990s is 1992
			t.Errorf("3rd year of decade = %d", y)
		}
	}
}

// SECONDS as the finest granularity: one minute of seconds.
func TestSecondsGranularity(t *testing.T) {
	env, _ := env1987(t)
	got, err := EvaluateWindow(env, expr(t, "SECONDS:during:MINUTES"),
		chronology.Second, interval.Must(1, 120))
	if err != nil {
		t.Fatal(err)
	}
	if got.Order() != 2 || got.Len() != 2 {
		t.Fatalf("shape = order %d len %d", got.Order(), got.Len())
	}
	if len(got.Group(0)) != 60 {
		t.Errorf("first minute has %d seconds", len(got.Group(0)))
	}
}

// Mixing weeks with months forces day granularity (they do not align), and
// the result is consistent with computing in days directly.
func TestWeekMonthMixDropsToDays(t *testing.T) {
	env, _ := env1987(t)
	e := expr(t, "WEEKS:during:MONTHS")
	_, gran, err := Prepare(env, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gran != chronology.Day {
		t.Errorf("granularity = %v, want DAYS", gran)
	}
	// Weeks alone stay at week granularity.
	_, gran, err = Prepare(env, expr(t, "[2]/WEEKS:during:WEEKS"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if gran != chronology.Week {
		t.Errorf("weeks-only granularity = %v, want WEEKS", gran)
	}
	// Months with years stay at month granularity.
	_, gran, err = Prepare(env, expr(t, "[1]/MONTHS:during:YEARS"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if gran != chronology.Month {
		t.Errorf("month/year granularity = %v, want MONTHS", gran)
	}
}

// The whole pipeline under a mid-year epoch: month boundaries are still
// civil months even though tick 1 of MONTHS starts before the epoch day.
func TestMidYearEpochPipeline(t *testing.T) {
	cat := NewMapCatalog()
	env := &Env{Chron: chronology.MustNew(chronology.Civil{Year: 1990, Month: 7, Day: 18}), Cat: cat}
	got, err := Evaluate(env, expr(t, "[n]/DAYS:during:MONTHS"),
		d(1990, 7, 18), d(1990, 9, 30))
	if err != nil {
		t.Fatal(err)
	}
	ch := env.Chron
	var ends []chronology.Civil
	for _, iv := range got.Flatten().Intervals() {
		ends = append(ends, ch.CivilOfDayTick(iv.Lo))
	}
	want := []chronology.Civil{{Year: 1990, Month: 7, Day: 31}, {Year: 1990, Month: 8, Day: 31}, {Year: 1990, Month: 9, Day: 30}}
	if len(ends) != len(want) {
		t.Fatalf("month ends = %v", ends)
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("end %d = %v, want %v", i, ends[i], want[i])
		}
	}
	// Label selection by year works regardless of epoch alignment.
	cal, err := Evaluate(env, expr(t, "MONTHS:during:1991/YEARS"), d(1990, 7, 18), d(1992, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	if cal.Flatten().Len() != 12 {
		t.Errorf("months of 1991 = %v", cal.Flatten())
	}
}
