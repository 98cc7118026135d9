package calsys

import (
	"strings"
	"testing"
)

func TestOpenDefaults(t *testing.T) {
	s, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if s.Chron().Epoch() != DefaultEpoch {
		t.Errorf("epoch = %v", s.Chron().Epoch())
	}
	if s.Today() != DefaultEpoch {
		t.Errorf("today = %v", s.Today())
	}
	if _, err := Open(WithEpoch(Civil{Year: 1993, Month: 2, Day: 30})); err == nil {
		t.Error("invalid epoch should fail")
	}
}

func TestDateHelpers(t *testing.T) {
	if _, err := Date(1993, 2, 30); err == nil {
		t.Error("invalid date should fail")
	}
	d := MustDate(1993, 1, 5)
	if d.Weekday() != Tuesday {
		t.Errorf("weekday = %v", d.Weekday())
	}
	s := MustOpen()
	if s.DayTickOf(d) != 2197 {
		t.Errorf("day tick = %d", s.DayTickOf(d))
	}
	if s.CivilOfDayTick(2197) != d {
		t.Error("round trip")
	}
	if s.SecondsOf(MustDate(1987, 1, 2)) != SecondsPerDay {
		t.Error("SecondsOf")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustDate should panic on bad date")
		}
	}()
	MustDate(1993, 2, 30)
}

// End to end through the public API: the Figure 1 calendar, the paper's
// parse trees, and a temporal rule driven by DBCRON.
func TestEndToEndPaperScenario(t *testing.T) {
	clock := NewVirtualClock(0)
	s := MustOpen(WithClock(clock))
	clock.Set(s.SecondsOf(MustDate(1993, 1, 1)))

	// Figure 1: Tuesdays.
	if err := s.DefineCalendar("Tuesdays", "[2]/DAYS:during:WEEKS", GranAuto); err != nil {
		t.Fatal(err)
	}
	row, err := s.CalendarFigureRow("Tuesdays")
	if err != nil || !strings.Contains(row, "Tuesdays") {
		t.Fatalf("figure row: %v\n%s", err, row)
	}
	cal, err := s.EvalCalendar("Tuesdays", MustDate(1993, 1, 1), MustDate(1993, 1, 31))
	if err != nil {
		t.Fatal(err)
	}
	if cal.Flatten().Len() != 5 {
		t.Errorf("Tuesdays = %v", cal)
	}

	// Figures 2-3: parse trees shrink under factorization.
	if err := s.DefineCalendar("Mondays", "[1]/DAYS:during:WEEKS", GranAuto); err != nil {
		t.Fatal(err)
	}
	if err := s.DefineCalendar("Januarys", "[1]/MONTHS:during:YEARS", GranAuto); err != nil {
		t.Fatal(err)
	}
	initial, factored, err := s.ParseTree("Mondays:during:Januarys:during:1993/YEARS")
	if err != nil {
		t.Fatal(err)
	}
	if len(factored) >= len(initial) {
		t.Errorf("factorized tree not smaller:\n%s\nvs\n%s", factored, initial)
	}

	// Temporal rule via the Go API and DBCRON under virtual time.
	fired := 0
	if err := s.OnCalendar("tuesday_proc", "Tuesdays", func(tx *Txn, at int64) error {
		fired++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cron, err := s.StartDBCron(SecondsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 14; i++ {
		if _, err := cron.AdvanceTo(clock.Advance(SecondsPerDay)); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 2 {
		t.Errorf("rule fired %d times in two weeks, want 2", fired)
	}
	if err := s.DropRule("tuesday_proc"); err != nil {
		t.Fatal(err)
	}
}

func TestQueryThroughFacade(t *testing.T) {
	s := MustOpen()
	if _, err := s.Exec(`create stocks (sym text, day date, price float)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`append stocks (sym = "IBM", day = "1993-01-15", price = 50.0)
		append stocks (sym = "IBM", day = "1993-01-16", price = 51.0)`); err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecOne(`retrieve (stocks.price) where stocks.day = "1993-01-16"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].F != 51 {
		t.Errorf("rows = %v", res.Rows)
	}
	// The registered 30/360 function is available in queries.
	res, err = s.ExecOne(`retrieve (days("30/360", "1993-01-01", "1994-01-01")) from stocks where stocks.price = 50.0`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 360 {
		t.Errorf("days = %v", res.Rows[0][0])
	}
}

func TestEventRuleThroughFacade(t *testing.T) {
	s := MustOpen()
	if _, err := s.Exec(`create trades (sym text, px float)`); err != nil {
		t.Fatal(err)
	}
	var seen []string
	err := s.OnEvent("watch", EvAppend, "trades",
		func(tx *Txn, ev Event) (bool, error) { return ev.New[1].F > 100, nil },
		func(tx *Txn, ev *Event) error {
			seen = append(seen, ev.New[0].S)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`append trades (sym = "A", px = 50.0)
		append trades (sym = "B", px = 200.0)`); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "B" {
		t.Errorf("seen = %v", seen)
	}
}

func TestCalendarScriptAndSeriesThroughFacade(t *testing.T) {
	s := MustOpen()
	hol, err := PointCalendar(Day, 31, 90)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DefineStoredCalendar("HOLIDAYS", hol); err != nil {
		t.Fatal(err)
	}
	v, err := s.RunCalendarScript(`{LDOM = [n]/DAYS:during:MONTHS;
		return (LDOM - HOLIDAYS);}`, MustDate(1987, 1, 1), MustDate(1987, 4, 30))
	if err != nil {
		t.Fatal(err)
	}
	if v.IsString() || v.Cal.Len() != 3 { // Jan 31 (holiday) dropped; Feb, Mar? 90 = Mar 31 dropped too
		// month ends 31, 59, 90, 120 minus {31,90} = {59, 120}
	}
	if v.Cal.String() != "{(59,59),(120,120)}" {
		t.Errorf("script result = %v", v.Cal)
	}

	gnp, err := s.NewRegularSeries("GNP", "[n]/DAYS:during:caloperate(MONTHS, 3)", MustDate(1987, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	gnp.Append(4500, 4520)
	obs, err := gnp.Observations()
	if err != nil || len(obs) != 2 {
		t.Fatalf("obs = %v, %v", obs, err)
	}
	if s.CivilOfDayTick(obs[0].Span.Lo) != MustDate(1987, 3, 31) {
		t.Errorf("first quarter end = %v", s.CivilOfDayTick(obs[0].Span.Lo))
	}
}

func TestCompileCalendarExposesPlan(t *testing.T) {
	s := MustOpen()
	p, err := s.CompileCalendar("[2]/DAYS:during:WEEKS", MustDate(1993, 1, 1), MustDate(1993, 1, 31))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "GENERATE WEEKS") {
		t.Errorf("plan:\n%s", p)
	}
	if p.GenerateCost() <= 0 {
		t.Error("plan cost should be positive")
	}
	if _, err := s.CompileCalendar("][", MustDate(1993, 1, 1), MustDate(1993, 1, 2)); err == nil {
		t.Error("bad expression should fail")
	}
}

func TestBondFacade(t *testing.T) {
	b := Bond{
		Issue: MustDate(1993, 1, 15), Maturity: MustDate(1998, 1, 15),
		Coupon: 0.08, Face: 100, Frequency: 2, Basis: Thirty360,
	}
	ai, err := b.AccruedInterest(MustDate(1993, 3, 1))
	if err != nil || ai <= 0 {
		t.Errorf("accrued = %v, %v", ai, err)
	}
	conv, err := DayCountByName("30/360")
	if err != nil || conv.Name() != "30/360" {
		t.Errorf("by name: %v", err)
	}
}

func TestFacadeAccessors(t *testing.T) {
	s := MustOpen()
	if s.DB() == nil || s.Rules() == nil || s.Query() == nil || s.Clock() == nil {
		t.Error("nil accessor")
	}
	if s.Now() != 0 {
		t.Errorf("Now = %d", s.Now())
	}
	hol, _ := PointCalendar(Day, 5)
	if err := s.DefineStoredCalendar("H", hol); err != nil {
		t.Fatal(err)
	}
	hol2, _ := PointCalendar(Day, 5, 9)
	if err := s.ReplaceStoredCalendar("H", hol2); err != nil {
		t.Fatal(err)
	}
	e, ok := s.CalendarEntryOf("H")
	if !ok || e.Values.Len() != 2 {
		t.Errorf("replaced entry = %+v", e)
	}
	if err := s.DropCalendar("H"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.CalendarEntryOf("H"); ok {
		t.Error("dropped calendar still present")
	}
}

func TestFacadeWindowCosts(t *testing.T) {
	s := MustOpen()
	if err := s.DefineCalendar("Mondays", "[1]/DAYS:during:WEEKS", GranAuto); err != nil {
		t.Fatal(err)
	}
	on, off, err := s.WindowCosts("Mondays:during:1993/YEARS", MustDate(1987, 1, 1), MustDate(2000, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	if on >= off {
		t.Errorf("windowed cost %d should be below unwindowed %d", on, off)
	}
	if _, _, err := s.WindowCosts("][", MustDate(1987, 1, 1), MustDate(1988, 1, 1)); err == nil {
		t.Error("bad expression should fail")
	}
}

// `today` is one reserved word however it is spelled: the three spellings vet
// to the same diagnostics and evaluate to the same value under a clock, and
// none of them can be assigned to.
func TestTodayIsOneReservedWord(t *testing.T) {
	clock := NewVirtualClock(0)
	s := MustOpen(WithClock(clock))
	clock.Set(s.SecondsOf(MustDate(1993, 1, 6)))
	var wantDiags, wantVal string
	for i, word := range []string{"today", "Today", "TODAY"} {
		src := "{return (" + word + ":during:WEEKS);}"
		diags := s.VetCalendar("", src)
		if diags.HasErrors() || !strings.Contains(diags.String(), "CV008") {
			t.Fatalf("%s vets to:\n%s\nwant the CV008 warning and no error", src, diags)
		}
		v, err := s.RunCalendarScript(src, MustDate(1993, 1, 1), MustDate(1993, 1, 31))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if i == 0 {
			wantDiags, wantVal = diags.String(), v.String()
			if v.Cal.IsEmpty() {
				t.Fatalf("%s = %s, want the current day", src, v)
			}
		} else if diags.String() != wantDiags || v.String() != wantVal {
			t.Errorf("%s: diagnostics %q, value %s; `today` gives %q, %s", src, diags, v, wantDiags, wantVal)
		}
	}
	err := s.DefineCalendar("Shadow", "{today = [1]/DAYS:during:WEEKS; return (today);}", GranAuto)
	if err == nil || !strings.Contains(err.Error(), "1:2: cannot assign to today") {
		t.Errorf("DefineCalendar accepted an assignment to today: %v", err)
	}
}

func TestFacadeScriptWithWait(t *testing.T) {
	clock := NewVirtualClock(0)
	s := MustOpen(WithClock(clock))
	clock.Set(s.SecondsOf(MustDate(1993, 1, 1)))
	waits := 0
	v, err := s.RunCalendarScriptWithWait(
		`{while (today:<:interval(2196, 2196, DAYS)) ; return ("GO");}`,
		MustDate(1993, 1, 1), MustDate(1993, 1, 31),
		func() error {
			waits++
			clock.Advance(SecondsPerDay)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsString() || v.Str != "GO" || waits == 0 {
		t.Errorf("v=%v waits=%d", v, waits)
	}
	if _, err := s.RunCalendarScriptWithWait("{oops", MustDate(1993, 1, 1), MustDate(1993, 1, 2), nil); err == nil {
		t.Error("parse error should surface")
	}
}

// A descending selection list yields its picks in predicate order, and the set
// operators take such a calendar as their left operand: the holiday is cut
// from (kept by) whichever element holds it, not only from those the merge
// cursor had not yet passed.
func TestSetOpsOnDescendingSelection(t *testing.T) {
	s := MustOpen()
	// Monday 4 January 1993 is day tick 2196.
	hol, err := CalendarFromPoints(Day, []Tick{2196})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DefineStoredCalendar("HOL", hol); err != nil {
		t.Fatal(err)
	}
	from, to := MustDate(1993, 1, 4), MustDate(1993, 1, 17)
	eval := func(src string) string {
		t.Helper()
		c, err := s.EvalCalendar(src, from, to)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return c.String()
	}
	if got := eval("[3,1]/DAYS:during:WEEKS"); got != "{{(2198,2198),(2196,2196)},{(2205,2205),(2203,2203)}}" {
		t.Fatalf("[3,1]/DAYS:during:WEEKS = %s", got)
	}
	if got, want := eval("([3,1]/DAYS:during:WEEKS) - HOL"), "{(2198,2198),(2205,2205),(2203,2203)}"; got != want {
		t.Errorf("([3,1]/DAYS:during:WEEKS) - HOL = %s, want %s", got, want)
	}
	if got, want := eval("([3,1]/DAYS:during:WEEKS):intersects:HOL"), "{(2196,2196)}"; got != want {
		t.Errorf("([3,1]/DAYS:during:WEEKS):intersects:HOL = %s, want %s", got, want)
	}
	// The ascending list gives the same elements.
	if got, want := eval("([1,3]/DAYS:during:WEEKS) - HOL"), "{(2198,2198),(2203,2203),(2205,2205)}"; got != want {
		t.Errorf("([1,3]/DAYS:during:WEEKS) - HOL = %s, want %s", got, want)
	}
}
