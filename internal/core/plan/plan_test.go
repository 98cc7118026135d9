package plan

import (
	"strings"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/interval"
)

func d(y, m, day int) chronology.Civil { return chronology.Civil{Year: y, Month: m, Day: day} }

// env1987 builds an environment anchored at the paper's system start date.
func env1987(t testing.TB) (*Env, *MapCatalog) {
	t.Helper()
	cat := NewMapCatalog()
	env := &Env{Chron: chronology.MustNew(chronology.DefaultEpoch), Cat: cat}
	return env, cat
}

func defineScript(t testing.TB, cat *MapCatalog, name, src string, kind chronology.Granularity) {
	t.Helper()
	s, err := callang.ParseScript(src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	cat.Scripts[name] = s
	cat.Kinds[name] = kind
}

func expr(t testing.TB, src string) callang.Expr {
	t.Helper()
	e, err := callang.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

// Figure 1: the calendar Tuesdays, derived by [2]/DAYS:during:WEEKS ("the
// 2nd day of every week"; Monday is 1). Evaluated over January 1993, the
// Tuesdays include Dec 29 1992 (the week straddling the window start).
func TestFigure1Tuesdays(t *testing.T) {
	env, _ := env1987(t)
	got, err := Evaluate(env, expr(t, "[2]/DAYS:during:WEEKS"), d(1993, 1, 1), d(1993, 1, 31))
	if err != nil {
		t.Fatal(err)
	}
	// Jan 1 1993 is day tick 2193; Tuesdays: Dec 29 (2190), Jan 5 (2197),
	// Jan 12 (2204), Jan 19 (2211), Jan 26 (2218).
	want := "{(2190,2190),(2197,2197),(2204,2204),(2211,2211),(2218,2218)}"
	if got.String() != want {
		t.Errorf("Tuesdays = %v, want %v", got, want)
	}
	// Every selected day is in fact a Tuesday.
	for _, iv := range got.Intervals() {
		if w := env.Chron.CivilOfDayTick(iv.Lo).Weekday(); w != chronology.Tuesday {
			t.Errorf("day %d is %v, not Tuesday", iv.Lo, w)
		}
	}
}

// Example 1 of §3.4 end to end: "Mondays during January 1993".
func TestExample1MondaysEndToEnd(t *testing.T) {
	env, cat := env1987(t)
	defineScript(t, cat, "Mondays", "[1]/DAYS:during:WEEKS;", chronology.Day)
	defineScript(t, cat, "Januarys", "[1]/MONTHS:during:YEARS;", chronology.Month)
	got, err := Evaluate(env, expr(t, "Mondays:during:Januarys:during:1993/YEARS"),
		d(1987, 1, 1), d(1994, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	// Mondays of January 1993: Jan 4, 11, 18, 25 = day ticks 2196..2217.
	want := "{(2196,2196),(2203,2203),(2210,2210),(2217,2217)}"
	if got.Flatten().String() != want {
		t.Errorf("Mondays during January 1993 = %v, want %v", got, want)
	}
}

// Example 2 of §3.4 end to end: "Third week in January 1993".
func TestExample2ThirdWeekEndToEnd(t *testing.T) {
	env, cat := env1987(t)
	defineScript(t, cat, "Third_Weeks", "[3]/WEEKS:overlaps:MONTHS;", chronology.Week)
	defineScript(t, cat, "Januarys", "[1]/MONTHS:during:YEARS;", chronology.Month)
	got, err := Evaluate(env, expr(t, "Third_Weeks:during:Januarys:during:1993/YEARS"),
		d(1987, 1, 1), d(1994, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	// §3.1 gives the third week of January 1993 as (11,17) in 1993-anchored
	// day ticks; in 1987-anchored ticks that is (2203,2209).
	want := "{(2203,2209)}"
	if got.Flatten().String() != want {
		t.Errorf("third week in January 1993 = %v, want %v", got, want)
	}
}

// Factorized and unfactorized plans must agree (the rewrite preserves
// semantics) while the factorized plan is smaller.
func TestFactorizationPreservesSemantics(t *testing.T) {
	env, cat := env1987(t)
	defineScript(t, cat, "Mondays", "[1]/DAYS:during:WEEKS;", chronology.Day)
	defineScript(t, cat, "Januarys", "[1]/MONTHS:during:YEARS;", chronology.Month)
	defineScript(t, cat, "Third_Weeks", "[3]/WEEKS:overlaps:MONTHS;", chronology.Week)
	for _, src := range []string{
		"Mondays:during:Januarys:during:1993/YEARS",
		"Third_Weeks:during:Januarys:during:1993/YEARS",
	} {
		fast, err := Evaluate(env, expr(t, src), d(1987, 1, 1), d(1994, 12, 31))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		envSlow := *env
		envSlow.DisableFactorization = true
		slow, err := Evaluate(&envSlow, expr(t, src), d(1987, 1, 1), d(1994, 12, 31))
		if err != nil {
			t.Fatalf("%s unfactorized: %v", src, err)
		}
		if !fast.Flatten().ToSet().Equal(slow.Flatten().ToSet()) {
			t.Errorf("%s: factorized %v != unfactorized %v", src, fast, slow)
		}
	}
}

// §3.4: "for the expressions to be evaluated, calendars need only be
// generated for the time interval 1993" — window inference must narrow every
// generation window to (a straddle of) 1993 even when the base window spans
// 1987-1994.
func TestWindowInference(t *testing.T) {
	env, cat := env1987(t)
	defineScript(t, cat, "Mondays", "[1]/DAYS:during:WEEKS;", chronology.Day)
	defineScript(t, cat, "Januarys", "[1]/MONTHS:during:YEARS;", chronology.Month)
	p, err := CompileExpr(env, expr(t, "Mondays:during:Januarys:during:1993/YEARS"),
		nil, d(1987, 1, 1), d(1994, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	// 1993 in 1987-anchored day ticks is (2193,2557); windows may straddle
	// by at most one week for week-aligned calendars.
	for _, op := range p.Ops {
		if op.Kind == OpGenerate {
			if op.Win.Lo < 2193-7 || op.Win.Hi > 2557+7 {
				t.Errorf("generation window %v not narrowed to 1993 (2193,2557):\n%s", op.Win, p)
			}
		}
	}
	// With inference disabled, windows stay at the full base range.
	envOff := *env
	envOff.DisableWindowInference = true
	pOff, err := CompileExpr(&envOff, expr(t, "Mondays:during:Januarys:during:1993/YEARS"),
		nil, d(1987, 1, 1), d(1994, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	if pOff.GenerateCost() <= p.GenerateCost() {
		t.Errorf("windowed cost %d should be below unwindowed %d",
			p.GenerateCost(), pOff.GenerateCost())
	}
	// Both plans agree on the result.
	a, err := p.Exec(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pOff.Exec(&envOff, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Flatten().ToSet().Equal(b.Flatten().ToSet()) {
		t.Errorf("windowed %v != unwindowed %v", a, b)
	}
}

// A shared sub-calendar (DAYS twice) compiles to a single register (the
// paper's "avoid generating values of the calendar unnecessarily").
func TestSharedCalendarCSE(t *testing.T) {
	env, _ := env1987(t)
	p, err := CompileExpr(env, expr(t, "([1]/DAYS:during:WEEKS) + ([2]/DAYS:during:WEEKS)"),
		nil, d(1993, 1, 1), d(1993, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	genOps := 0
	for _, op := range p.Ops {
		if op.Kind == OpGenerate {
			genOps++
		}
	}
	if genOps != 2 { // one for DAYS, one for WEEKS — not four
		t.Errorf("generate ops = %d, want 2 (shared DAYS and WEEKS):\n%s", genOps, p)
	}
}

func TestLabelSelectionGranularities(t *testing.T) {
	env, _ := env1987(t)
	// 1993/YEARS at month granularity spans month ticks (73,84).
	got, err := Evaluate(env, expr(t, "MONTHS:during:1993/YEARS"), d(1987, 1, 1), d(1995, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	flat := got.Flatten()
	if flat.Len() != 12 || flat.Interval(0) != interval.Must(73, 73) || flat.Interval(11) != interval.Must(84, 84) {
		t.Errorf("months of 1993 = %v", flat)
	}
}

func TestGenerateCallMatchesPaper(t *testing.T) {
	env, _ := env1987(t)
	got, err := Evaluate(env, expr(t, `generate(YEARS, DAYS, "Jan 1 1987", "Jan 3 1992")`),
		d(1987, 1, 1), d(1994, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	want := "{(1,365),(366,731),(732,1096),(1097,1461),(1462,1826),(1827,1829)}"
	if got.String() != want {
		t.Errorf("generate(...) = %v, want %v", got, want)
	}
}

func TestCaloperateCall(t *testing.T) {
	env, _ := env1987(t)
	got, err := Evaluate(env, expr(t, `caloperate(generate(MONTHS, DAYS, "Jan 1 1993", "Dec 31 1993"), 3)`),
		d(1993, 1, 1), d(1993, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	// Quarters of 1993 in 1987-anchored day ticks (Jan 1 1993 = 2193).
	want := "{(2193,2282),(2283,2373),(2374,2465),(2466,2557)}"
	if got.String() != want {
		t.Errorf("quarters = %v, want %v", got, want)
	}
}

func TestIntervalAndPointsCalls(t *testing.T) {
	env, _ := env1987(t)
	got, err := Evaluate(env, expr(t, "DAYS:during:interval(1, 7)"), d(1987, 1, 1), d(1987, 1, 31))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 7 {
		t.Errorf("days during (1,7) = %v", got)
	}
	got, err = Evaluate(env, expr(t, "points(1, 5, 9) + points(12)"), d(1987, 1, 1), d(1987, 1, 31))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "{(1,1),(5,5),(9,9),(12,12)}" {
		t.Errorf("points union = %v", got)
	}
}

func TestStoredCalendarLoad(t *testing.T) {
	env, cat := env1987(t)
	hol, _ := calendar.FromPoints(chronology.Day, []chronology.Tick{31, 90})
	cat.Stored["HOLIDAYS"] = hol
	cat.Kinds["HOLIDAYS"] = chronology.Day
	got, err := Evaluate(env, expr(t, "([n]/DAYS:during:MONTHS):intersects:HOLIDAYS"),
		d(1987, 1, 1), d(1987, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	// Day 31 is the last day of January 1987; day 90 is not a month end
	// (March 31 1987 is day 90 — it is). Check against the algebra directly.
	if got.String() != "{(31,31),(90,90)}" {
		t.Errorf("month-end holidays = %v", got)
	}
}

func TestCompileErrors(t *testing.T) {
	env, cat := env1987(t)
	cases := []string{
		"NO_SUCH_CAL",
		"5",
		`"stray string"`,
		"1993/(DAYS:during:WEEKS)", // label selection needs a basic calendar
		"1993/UNKNOWN",
		"bogus(DAYS)",
		"generate(DAYS)",
		`generate(NOPE, DAYS, "Jan 1 1987", "Jan 2 1987")`,
		`generate(YEARS, DAYS, "bad date", "Jan 2 1987")`,
		`generate(YEARS, DAYS, 5, "Jan 2 1987")`,
		"caloperate(DAYS)",
		"caloperate(DAYS, WEEKS)",
		"interval(1)",
		"interval(5, 1)",
		"interval(DAYS, 5)",
		"points()",
		"points(DAYS)",
		"points(0)",
		"today", // no clock configured
	}
	for _, src := range cases {
		if _, err := Evaluate(env, expr(t, src), d(1993, 1, 1), d(1993, 12, 31)); err == nil {
			t.Errorf("Evaluate(%q) should fail", src)
		}
	}
	_ = cat
}

func TestTodayOp(t *testing.T) {
	env, _ := env1987(t)
	now := env.Chron.EpochSecondsOf(d(1993, 1, 5)) + 3600
	env.Now = func() int64 { return now }
	got, err := Evaluate(env, expr(t, "DAYS:intersects:today"), d(1993, 1, 1), d(1993, 1, 31))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "{(2197,2197)}" {
		t.Errorf("today = %v, want {(2197,2197)} (Jan 5 1993)", got)
	}
}

func TestPlanString(t *testing.T) {
	env, _ := env1987(t)
	p, err := CompileExpr(env, expr(t, "[2]/DAYS:during:WEEKS"), nil, d(1993, 1, 1), d(1993, 1, 31))
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"GENERATE DAYS", "GENERATE WEEKS", "FOREACH", "SELECT [2]", "RESULT"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan rendering missing %q:\n%s", want, s)
		}
	}
}

func TestEvaluateWindow(t *testing.T) {
	env, _ := env1987(t)
	got, err := EvaluateWindow(env, expr(t, "WEEKS"), chronology.Day, interval.Must(1, 31))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 || got.Interval(0).Lo > 1 {
		t.Errorf("weeks of January 1987 = %v", got)
	}
}

func TestCivilWindowValidation(t *testing.T) {
	env, _ := env1987(t)
	if _, err := CivilWindow(env.Chron, chronology.Day, d(1993, 2, 30), d(1993, 3, 1)); err == nil {
		t.Error("invalid date should be rejected")
	}
	if _, err := CivilWindow(env.Chron, chronology.Day, d(1994, 1, 1), d(1993, 1, 1)); err == nil {
		t.Error("reversed window should be rejected")
	}
	w, err := CivilWindow(env.Chron, chronology.Day, d(1987, 1, 1), d(1987, 1, 1))
	if err != nil || w != interval.Must(1, 1) {
		t.Errorf("single-day window = %v, %v", w, err)
	}
}

func TestGranularityConflict(t *testing.T) {
	env, _ := env1987(t)
	// SECONDS in a DAY-granularity plan must fail (cannot express seconds in
	// coarser day ticks).
	prepped, _, err := Prepare(env, expr(t, "SECONDS:during:DAYS"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(env, prepped, nil, chronology.Day, interval.Must(1, 10)); err == nil {
		t.Error("seconds at day granularity should fail")
	}
}
