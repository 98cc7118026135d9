package plan

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/interval"
)

// env1993 anchors the chronology at Jan 1 1993 so tick values match the
// paper's §3.3 walkthroughs, and installs the paper's schematic HOLIDAYS and
// AM_BUS_DAYS calendars: holidays on day 31 (Jan 31) and day 90 (the last
// day of March); business days are all days except 31, 89 and 90.
func env1993(t testing.TB) (*Env, *MapCatalog) {
	t.Helper()
	cat := NewMapCatalog()
	env := &Env{Chron: chronology.MustNew(chronology.Civil{Year: 1993, Month: 1, Day: 1}), Cat: cat}

	hol, err := calendar.FromPoints(chronology.Day, []chronology.Tick{31, 90})
	if err != nil {
		t.Fatal(err)
	}
	cat.Stored["HOLIDAYS"] = hol
	cat.Kinds["HOLIDAYS"] = chronology.Day

	var bus []chronology.Tick
	for day := chronology.Tick(1); day <= 150; day++ {
		if day == 31 || day == 89 || day == 90 {
			continue
		}
		bus = append(bus, day)
	}
	busCal, err := calendar.FromPoints(chronology.Day, bus)
	if err != nil {
		t.Fatal(err)
	}
	cat.Stored["AM_BUS_DAYS"] = busCal
	cat.Kinds["AM_BUS_DAYS"] = chronology.Day
	return env, cat
}

func script(t testing.TB, src string) *callang.Script {
	t.Helper()
	s, err := callang.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The EMP-DAYS script of §3.3: "the last day of every month in the year; if
// this is a holiday, then the preceding business day". The paper's
// walkthrough yields {(30,30),(59,59),(88,88),...}.
func TestPaperEmpDaysScript(t *testing.T) {
	env, _ := env1993(t)
	s := script(t, `{LDOM = [n]/DAYS:during:MONTHS;
		LDOM_HOL = LDOM:intersects:HOLIDAYS;
		LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;
		return (LDOM - LDOM_HOL + LAST_BUS_DAY);}`)
	v, err := RunScript(env, s, d(1993, 1, 1), d(1993, 4, 30))
	if err != nil {
		t.Fatal(err)
	}
	if v.IsString() {
		t.Fatalf("expected calendar, got %v", v)
	}
	want := "{(30,30),(59,59),(88,88),(120,120)}"
	if v.Cal.String() != want {
		t.Errorf("EMP-DAYS = %v, want %v", v.Cal, want)
	}
}

// The option-expiration script of §3.3: "third Friday of the expiration
// month if a business day else the preceding business day".
func TestPaperOptionExpirationScript(t *testing.T) {
	env, cat := env1993(t)
	src := `{Fridays = [5]/DAYS:during:WEEKS;
		temp1 = [3]/Fridays:overlaps:Expiration-Month;
		if (temp1:intersects:HOLIDAYS)
			return([n]/AM_BUS_DAYS:<:temp1);
		else
			return(temp1);}`
	s := script(t, src)

	// Expiration month January 1993: the 3rd Friday is Jan 15 (day 15), a
	// business day, so the script returns it unchanged.
	jan := calendar.MustFromIntervals(chronology.Day, interval.Must(1, 31))
	cat.Stored["Expiration-Month"] = jan
	cat.Kinds["Expiration-Month"] = chronology.Month
	v, err := RunScript(env, s, d(1993, 1, 1), d(1993, 6, 30))
	if err != nil {
		t.Fatal(err)
	}
	if v.Cal.String() != "{(15,15)}" {
		t.Errorf("expiration = %v, want {(15,15)} (Jan 15 1993)", v.Cal)
	}
	if w := env.Chron.CivilOfDayTick(15).Weekday(); w != chronology.Friday {
		t.Fatalf("day 15 is %v, not Friday", w)
	}

	// Now make the 3rd Friday a holiday (and, consistently, not a business
	// day): the script must return the preceding business day, Jan 14.
	hol, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{15, 31, 90})
	cat.Stored["HOLIDAYS"] = hol
	var bus []chronology.Tick
	for day := chronology.Tick(1); day <= 150; day++ {
		if day == 15 || day == 31 || day == 89 || day == 90 {
			continue
		}
		bus = append(bus, day)
	}
	busCal, err := calendar.FromPoints(chronology.Day, bus)
	if err != nil {
		t.Fatal(err)
	}
	cat.Stored["AM_BUS_DAYS"] = busCal
	v, err = RunScript(env, s, d(1993, 1, 1), d(1993, 6, 30))
	if err != nil {
		t.Fatal(err)
	}
	if v.Cal.String() != "{(14,14)}" {
		t.Errorf("holiday expiration = %v, want {(14,14)}", v.Cal)
	}
}

// The last-trading-day script of §3.3: wait until the seventh business day
// preceding the last business day of the expiration month, then alert.
func TestPaperLastTradingDayScript(t *testing.T) {
	env, cat := env1993(t)
	jan := calendar.MustFromIntervals(chronology.Day, interval.Must(1, 31))
	cat.Stored["Expiration-Month"] = jan
	cat.Kinds["Expiration-Month"] = chronology.Month

	s := script(t, `{ temp1 = [n]/AM_BUS_DAYS:during:Expiration-Month;
		temp2 = [-7]/AM_BUS_DAYS:<:temp1;
		while (today:<:temp2) ;
		return ("LAST TRADING DAY");}`)

	// Last business day of January 1993 is day 30 (31 is a holiday). The
	// paper's < is inclusive (u1 <= l2), so the business days "before" day
	// 30 are 1..30 and the 7th from the end is day 24.
	now := env.Chron.EpochSecondsOf(d(1993, 1, 18)) // day 18: must wait
	waits := 0
	env.Now = func() int64 { return now }
	env.Wait = func() error {
		waits++
		now += chronology.SecondsPerDay
		return nil
	}
	v, err := RunScript(env, s, d(1993, 1, 1), d(1993, 1, 31))
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsString() || v.Str != "LAST TRADING DAY" {
		t.Errorf("alert = %v", v)
	}
	// today:<:temp2 holds while today <= 24, so the loop waits on days
	// 18..24 — seven advances — and alerts on day 25.
	if waits != 7 {
		t.Errorf("waited %d days, want 7 (day 18 -> day 25)", waits)
	}
}

func TestScriptValueString(t *testing.T) {
	v := Value{Str: "ALERT"}
	if !v.IsString() || v.String() != `"ALERT"` {
		t.Errorf("string value = %v", v)
	}
	c, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{1})
	v = Value{Cal: c}
	if v.IsString() || v.String() != "{(1,1)}" {
		t.Errorf("calendar value = %v", v)
	}
}

func TestScriptErrors(t *testing.T) {
	env, _ := env1993(t)
	cases := map[string]string{
		"no return":       `{x = DAYS:during:MONTHS;}`,
		"unknown cal":     `{return (NOPE);}`,
		"bad assign":      `{x = NOPE; return (x);}`,
		"bad if cond":     `{if (NOPE) return (DAYS); else return (DAYS);}`,
		"bad while cond":  `{while (NOPE) ; return (DAYS);}`,
		"wait without ho": `{while (DAYS:during:MONTHS) ; return (DAYS);}`,
	}
	for name, src := range cases {
		s := script(t, src)
		if _, err := RunScript(env, s, d(1993, 1, 1), d(1993, 3, 31)); err == nil {
			t.Errorf("%s: script should fail", name)
		}
	}
}

func TestScriptWhileIterationCap(t *testing.T) {
	env, _ := env1993(t)
	env.MaxWhileIters = 10
	// Condition never changes and the body is non-empty: the cap must trip.
	s := script(t, `{while (DAYS:during:MONTHS) x = DAYS:during:MONTHS; return (x);}`)
	_, err := RunScript(env, s, d(1993, 1, 1), d(1993, 1, 31))
	if err == nil || !strings.Contains(err.Error(), "iterations") {
		t.Errorf("expected iteration-cap error, got %v", err)
	}
}

func TestScriptWhileWithBody(t *testing.T) {
	env, cat := env1993(t)
	// A while whose condition becomes false: x starts as January's days and
	// is intersected with HOLIDAYS once, after which x:<:interval(1,1) is
	// empty... use a simpler shrinking loop:
	// while (x:intersects:HOLIDAYS) x = x - HOLIDAYS;
	s := script(t, `{x = [n]/DAYS:during:MONTHS;
		while (x:intersects:HOLIDAYS) x = x - HOLIDAYS;
		return (x);}`)
	v, err := RunScript(env, s, d(1993, 1, 1), d(1993, 4, 30))
	if err != nil {
		t.Fatal(err)
	}
	// Month ends 31, 59, 90, 120 minus holidays {31, 90}.
	if v.Cal.String() != "{(59,59),(120,120)}" {
		t.Errorf("loop result = %v", v.Cal)
	}
	_ = cat
}

func TestOpaqueDerivedCalendarInExpression(t *testing.T) {
	env, cat := env1993(t)
	defineScript(t, cat, "EMP_DAYS", `{LDOM = [n]/DAYS:during:MONTHS;
		LDOM_HOL = LDOM:intersects:HOLIDAYS;
		LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;
		return (LDOM - LDOM_HOL + LAST_BUS_DAY);}`, chronology.Day)
	// Use the opaque derived calendar inside another expression.
	got, err := Evaluate(env, expr(t, "EMP_DAYS:intersects:(DAYS:during:interval(1, 59))"),
		d(1993, 1, 1), d(1993, 4, 30))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "{(30,30),(59,59)}" {
		t.Errorf("EMP_DAYS restricted = %v", got)
	}
}

func TestDerivedReturningStringFails(t *testing.T) {
	env, cat := env1993(t)
	defineScript(t, cat, "ALERTER", `{x = DAYS:during:MONTHS; return ("BOOM");}`, chronology.Day)
	if _, err := Evaluate(env, expr(t, "ALERTER:intersects:HOLIDAYS"), d(1993, 1, 1), d(1993, 1, 31)); err == nil {
		t.Error("derived calendar returning a string must fail in expressions")
	}
}

// A condition is false iff the calendar has no leaf interval (§3.3's null
// calendar; foreach drops ε): a foreach over a multi-element argument whose
// groups are all empty — {{},{}} — is as false as {}.
func TestScriptConditionOverEmptyGroups(t *testing.T) {
	ifScript := script(t, `{ if (today:during:HOLIDAYS) return ("HOLIDAY"); else return ("WORK");}`)
	whileScript := script(t, `{ while (today:during:HOLIDAYS) ; return ("BACK AT WORK");}`)
	for _, tc := range []struct {
		today     chronology.Civil
		want      string
		wantWaits int
	}{
		{d(1993, 1, 18), "WORK", 0},
		{d(1993, 1, 31), "HOLIDAY", 1}, // day 31 is in HOLIDAYS = {(31,31),(90,90)}
	} {
		env, _ := env1993(t)
		now := env.Chron.EpochSecondsOf(tc.today)
		waits := 0
		env.Now = func() int64 { return now }
		env.Wait = func() error {
			waits++
			now += chronology.SecondsPerDay
			return nil
		}
		v, err := RunScript(env, ifScript, d(1993, 1, 1), d(1993, 4, 30))
		if err != nil {
			t.Fatal(err)
		}
		if v.Str != tc.want {
			t.Errorf("if on %v = %v, want %q", tc.today, v, tc.want)
		}
		v, err = RunScript(env, whileScript, d(1993, 1, 1), d(1993, 4, 30))
		if err != nil {
			t.Fatal(err)
		}
		if v.Str != "BACK AT WORK" || waits != tc.wantWaits {
			t.Errorf("while on %v = %v after %d waits, want %d", tc.today, v, waits, tc.wantWaits)
		}
	}
}

// A temporary shadows a catalog calendar of its name from its assignment on,
// whatever kind of calendar that is: the inliner must not put the catalog's
// derivation where the script reads its own variable.
func TestTemporaryShadowsDerivedCalendar(t *testing.T) {
	env, cat := env1987(t)
	defineScript(t, cat, "Tuesdays", "[2]/DAYS:during:WEEKS;", chronology.Day)
	s := script(t, `{x = Tuesdays; Tuesdays = [3]/DAYS:during:WEEKS; return (x + Tuesdays);}`)
	v, err := RunScript(env, s, d(1993, 1, 4), d(1993, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Tuesday January 5 (the catalog's, read before the assignment) and
	// Wednesday January 6 (the temporary).
	if got := v.Cal.String(); got != "{(2197,2197),(2198,2198)}" {
		t.Errorf("runner = %s", got)
	}
	e, ok := s.AsExpr()
	if !ok {
		t.Fatal("straight-line script is not an expression")
	}
	c, err := Evaluate(env, e, d(1993, 1, 4), d(1993, 1, 10))
	if err != nil || !c.Equal(v.Cal) {
		t.Errorf("expression form = %v, %v; runner %v", c, err, v.Cal)
	}
}

// A statement whose substituted expression passes the node budget is an
// error naming it: the doubling script is 2⁶¹ nodes once substituted, and is
// refused without walking them; a loop growing its temporary by one
// difference an iteration passes the budget long before the iteration cap.
func TestScriptNodeBudget(t *testing.T) {
	env, _ := env1993(t)
	var b strings.Builder
	b.WriteString("{t0 = DAYS + WEEKS;")
	for i := 1; i <= 60; i++ {
		fmt.Fprintf(&b, " t%d = t%d + t%d;", i, i-1, i-1)
	}
	b.WriteString(" return (t60);}")
	for _, tc := range []struct {
		src, stmt string
		limit     time.Duration
	}{
		{b.String(), "in t9 = t8 + t8;: callang: 1:", time.Second},
		{`{x = DAYS; while (x) x = x - HOLIDAYS; return (x);}`, "in x = x - HOLIDAYS;: callang: 1:", 0},
	} {
		start := time.Now()
		_, err := RunScript(env, script(t, tc.src), d(1993, 1, 1), d(1993, 3, 31))
		if took := time.Since(start); tc.limit > 0 && took > tc.limit {
			t.Errorf("%.40s…: refused after %v", tc.src, took)
		}
		if err == nil || !strings.Contains(err.Error(), tc.stmt) || !strings.Contains(err.Error(), "more than 1024 nodes") {
			t.Errorf("%.40s…: error %v, want one naming %q", tc.src, err, tc.stmt)
		}
	}
}
