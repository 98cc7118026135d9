package postquel

import (
	"math/rand"
	"strings"
	"testing"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/rules"
	"calsys/internal/store"
)

func newEngine(t testing.TB) (*Engine, *rules.VirtualClock) {
	t.Helper()
	db := store.NewDB()
	ch := chronology.MustNew(chronology.DefaultEpoch)
	cal, err := caldb.New(db, ch)
	if err != nil {
		t.Fatal(err)
	}
	re, err := rules.NewEngine(cal)
	if err != nil {
		t.Fatal(err)
	}
	clock := rules.NewVirtualClock(ch.EpochSecondsOf(chronology.Civil{Year: 1993, Month: 1, Day: 1}))
	return NewEngine(cal, re, clock), clock
}

func mustExec(t *testing.T, e *Engine, src string) Result {
	t.Helper()
	res, err := e.ExecOne(src)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return res
}

func TestCreateAppendRetrieve(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create stocks (symbol text, day date, price float)`)
	mustExec(t, e, `append stocks (symbol = "IBM", day = "1993-01-04", price = 50.25)`)
	mustExec(t, e, `append stocks (symbol = "IBM", day = "1993-01-05", price = 51.5)`)
	mustExec(t, e, `append stocks (symbol = "DEC", day = "1993-01-04", price = 33.0)`)
	res := mustExec(t, e, `retrieve (stocks.symbol, stocks.price) where stocks.symbol = "IBM"`)
	if len(res.Rows) != 2 || res.Cols[0] != "symbol" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, e, `retrieve (stocks.price) where stocks.day = date("Jan 5, 1993")`)
	if len(res.Rows) != 1 || res.Rows[0][0].F != 51.5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Rendered table output.
	txt := res.String()
	if !strings.Contains(txt, "price") || !strings.Contains(txt, "51.5") {
		t.Errorf("rendered result:\n%s", txt)
	}
}

// The paper's flagship query: "Retrieve (stock.price) on expiration-date"
// where expiration-date is "the 3rd Friday of the month if it is a business
// day, else the preceding business day".
func TestRetrieveOnExpirationDate(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create stocks (symbol text, day date, price float)`)
	// Populate daily prices for January 1993.
	for day := 1; day <= 31; day++ {
		src := `append stocks (symbol = "IBM", day = "1993-01-` + pad2(day) + `", price = ` + itoa(1000+day) + `.0)`
		mustExec(t, e, src)
	}
	// Third Fridays: selection [5] gives Fridays, [3] the third one per
	// month; January 1993's is Jan 15.
	mustExec(t, e, `define calendar ThirdFridays as "[3]/([5]/DAYS:during:WEEKS):overlaps:MONTHS" granularity days`)
	res := mustExec(t, e, `retrieve (stocks.day, stocks.price) on ThirdFridays`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].D != (chronology.Civil{Year: 1993, Month: 1, Day: 15}) {
		t.Errorf("expiration day = %v, want 1993-01-15", res.Rows[0][0])
	}
	if res.Rows[0][1].F != 1015.0 {
		t.Errorf("price = %v", res.Rows[0][1])
	}
	// Quoted inline calendar expression works too.
	res = mustExec(t, e, `retrieve (stocks.day) on "[2]/DAYS:during:WEEKS" using day`)
	for _, row := range res.Rows {
		if row[0].D.Weekday() != chronology.Tuesday {
			t.Errorf("on-clause let through %v (%v)", row[0].D, row[0].D.Weekday())
		}
	}
	if len(res.Rows) != 4 {
		t.Errorf("Tuesdays in data = %d rows", len(res.Rows))
	}
}

func pad2(d int) string {
	if d < 10 {
		return "0" + string(rune('0'+d))
	}
	return string(rune('0'+d/10)) + string(rune('0'+d%10))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// The university query of §1: foreign students who worked more than 20
// hours in any week during the semester. The semester is an application-
// specific stored calendar.
func TestUniversityQuery(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create work (student text, foreign_student bool, week_start date, hours int)`)
	rows := []string{
		`append work (student = "ana",  foreign_student = true,  week_start = "1993-01-04", hours = 25)`,
		`append work (student = "ana",  foreign_student = true,  week_start = "1993-06-14", hours = 30)`, // outside semester
		`append work (student = "bob",  foreign_student = false, week_start = "1993-01-11", hours = 40)`, // not foreign
		`append work (student = "chen", foreign_student = true,  week_start = "1993-01-18", hours = 12)`, // under 20
		`append work (student = "dee",  foreign_student = true,  week_start = "1993-02-01", hours = 21)`,
	}
	for _, r := range rows {
		mustExec(t, e, r)
	}
	// Spring semester 1993: Jan 4 .. May 14 in day ticks (2196..2326).
	mustExec(t, e, `define calendar Semester as "DAYS:during:interval(2196, 2326)" granularity days`)
	res := mustExec(t, e, `retrieve (work.student)
		where work.foreign_student = true and work.hours > 20 and incal(work.week_start, Semester)`)
	var got []string
	for _, row := range res.Rows {
		got = append(got, row[0].S)
	}
	if strings.Join(got, ",") != "ana,dee" {
		t.Errorf("students = %v, want ana,dee", got)
	}
}

func TestAggregates(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create obs (day date, v float)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, e, `append obs (day = "1993-01-`+pad2(i)+`", v = `+itoa(i)+`.0)`)
	}
	res := mustExec(t, e, `retrieve (count(obs.v), sum(obs.v), avg(obs.v), min(obs.v), max(obs.v))`)
	row := res.Rows[0]
	if row[0].I != 10 || row[1].F != 55 || row[2].F != 5.5 || row[3].F != 1 || row[4].F != 10 {
		t.Errorf("aggregates = %v", row)
	}
	if _, err := e.ExecOne(`retrieve (count(obs.v), obs.v)`); err == nil {
		t.Error("mixed aggregate and plain targets should fail")
	}
}

func TestReplaceAndDelete(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create s (k text, v int)`)
	mustExec(t, e, `append s (k = "a", v = 1)`)
	mustExec(t, e, `append s (k = "b", v = 2)`)
	res := mustExec(t, e, `replace s (v = s.v * 10) where s.k = "a"`)
	if res.Msg != "replaced 1 tuples" {
		t.Errorf("msg = %q", res.Msg)
	}
	res = mustExec(t, e, `retrieve (s.v) where s.k = "a"`)
	if res.Rows[0][0].I != 10 {
		t.Errorf("v = %v", res.Rows[0][0])
	}
	mustExec(t, e, `delete s where s.v = 2`)
	res = mustExec(t, e, `retrieve (count(s.v))`)
	if res.Rows[0][0].I != 1 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestEventRuleThroughPostquel(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create trades (sym text, px float)`)
	mustExec(t, e, `create audit (sym text, px float)`)
	mustExec(t, e, `define rule big on append to trades where NEW.px > 100.0
		do ( append audit (sym = NEW.sym, px = NEW.px) )`)
	mustExec(t, e, `append trades (sym = "IBM", px = 50.0)`)
	mustExec(t, e, `append trades (sym = "AAPL", px = 150.0)`)
	res := mustExec(t, e, `retrieve (audit.sym, audit.px)`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "AAPL" {
		t.Errorf("audit rows = %v", res.Rows)
	}
	// RULE-INFO knows it.
	res = mustExec(t, e, `show rule big`)
	if !strings.Contains(res.Msg, "append on trades") {
		t.Errorf("show rule:\n%s", res.Msg)
	}
}

func TestTemporalRuleThroughPostquel(t *testing.T) {
	e, clock := newEngine(t)
	mustExec(t, e, `create alerts (msg text)`)
	mustExec(t, e, `define temporal rule tuesday_alert on "[2]/DAYS:during:WEEKS"
		do ( append alerts (msg = "it is tuesday") )`)
	cron, err := rules.NewDBCron(e.rules, chronology.SecondsPerDay, clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 14; i++ {
		if _, err := cron.AdvanceTo(clock.Advance(chronology.SecondsPerDay)); err != nil {
			t.Fatal(err)
		}
	}
	res := mustExec(t, e, `retrieve (count(alerts.msg))`)
	if res.Rows[0][0].I != 2 { // Jan 5 and Jan 12 1993
		t.Errorf("alerts = %v", res.Rows[0][0])
	}
}

func TestShowAndDrop(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create s (k text)`)
	mustExec(t, e, `define calendar Mondays as "[1]/DAYS:during:WEEKS"`)
	res := mustExec(t, e, `show calendars`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Mondays" {
		t.Errorf("calendars = %v", res.Rows)
	}
	res = mustExec(t, e, `show calendar Mondays`)
	if !strings.Contains(res.Msg, "Derivation-Script") {
		t.Errorf("figure row:\n%s", res.Msg)
	}
	res = mustExec(t, e, `show tables`)
	found := false
	for _, r := range res.Rows {
		if r[0].S == "s" {
			found = true
		}
	}
	if !found {
		t.Errorf("tables = %v", res.Rows)
	}
	mustExec(t, e, `drop calendar Mondays`)
	res = mustExec(t, e, `show calendars`)
	if len(res.Rows) != 0 {
		t.Errorf("calendars after drop = %v", res.Rows)
	}
	mustExec(t, e, `drop table s`)
	if _, err := e.ExecOne(`retrieve (s.k)`); err == nil {
		t.Error("dropped table should be gone")
	}
}

func TestScalarFunctions(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create t (d date)`)
	mustExec(t, e, `append t (d = "1993-01-05")`)
	res := mustExec(t, e, `retrieve (year(t.d), month(t.d), day(t.d), weekday(t.d), daytick(t.d))`)
	row := res.Rows[0]
	if row[0].I != 1993 || row[1].I != 1 || row[2].I != 5 || row[3].I != 2 || row[4].I != 2197 {
		t.Errorf("date parts = %v", row)
	}
	res = mustExec(t, e, `retrieve (t.d + 30, t.d - 5, t.d - t.d)`)
	row = res.Rows[0]
	if row[0].D != (chronology.Civil{Year: 1993, Month: 2, Day: 4}) || row[2].I != 0 {
		t.Errorf("date arithmetic = %v", row)
	}
	res = mustExec(t, e, `retrieve (now() - t.d) from t`)
	if res.Rows[0][0].I != -4 { // clock is Jan 1, row is Jan 5
		t.Errorf("now() diff = %v", res.Rows[0][0])
	}
	// User-defined function through the store registry.
	e.db.RegisterFunc(store.UserFunc{Name: "twice", MinArgs: 1, MaxArgs: 1,
		Fn: func(args []store.Value) (store.Value, error) { return store.NewInt(args[0].I * 2), nil }})
	res = mustExec(t, e, `retrieve (twice(day(t.d))) from t`)
	if res.Rows[0][0].I != 10 {
		t.Errorf("twice = %v", res.Rows[0][0])
	}
}

func TestParseAndExecErrors(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create s (k text, v int, d date)`)
	mustExec(t, e, `append s (k = "seed", v = 7, d = "1993-01-03")`)
	bad := []string{
		``,
		`frobnicate s`,
		`create s (k text)`,                          // duplicate table
		`append nope (k = "x")`,                      // missing table
		`append s (nope = 1)`,                        // missing column
		`retrieve (nope.k)`,                          // missing table
		`retrieve (s.nope)`,                          // missing column
		`retrieve (v)`,                               // no table inference possible
		`retrieve (s.v) on "][ bad"`,                 // bad calendar expression
		`retrieve (s.v) where s.v`,                   // non-boolean where
		`retrieve (s.v) where s.k + 1 = 2`,           // text arithmetic with int
		`retrieve (s.v / 0) from s`,                  // parse ok; runtime div zero needs rows
		`delete nope`,                                // missing table
		`define calendar X as "]["`,                  // bad script
		`define rule r on frob to s do ( delete s )`, // bad event
		`show frobs`,
		`drop frob x`,
		`append s (k = "unterminated`,
	}
	for _, src := range bad {
		if src == `retrieve (s.v / 0) from s` {
			continue // no rows: nothing evaluates
		}
		if _, err := e.ExecOne(src); err == nil {
			t.Errorf("Exec(%q) should fail", src)
		}
	}
	// Division by zero with a row present.
	mustExec(t, e, `append s (k = "a", v = 1, d = "1993-01-01")`)
	if _, err := e.ExecOne(`retrieve (s.v / 0) from s`); err == nil {
		t.Error("division by zero should fail")
	}
	// DDL inside rule actions is rejected at execution.
	mustExec(t, e, `define rule bad_ddl on append to s do ( drop table s )`)
	if _, err := e.ExecOne(`append s (k = "b", v = 2, d = "1993-01-02")`); err == nil {
		t.Error("DDL inside a rule action should fail")
	}
}

func TestBooleanLogic(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create s (k text, v int)`)
	mustExec(t, e, `append s (k = "a", v = 1)`)
	mustExec(t, e, `append s (k = "b", v = 2)`)
	mustExec(t, e, `append s (k = "c", v = 3)`)
	res := mustExec(t, e, `retrieve (s.k) where s.v >= 2 and not (s.k = "c")`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "b" {
		t.Errorf("rows = %v", res.Rows)
	}
	res = mustExec(t, e, `retrieve (s.k) where s.v = 1 or s.v = 3`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = mustExec(t, e, `retrieve (s.k) where true and not false`)
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func newDeterministicRand() *rand.Rand { return rand.New(rand.NewSource(1994)) }

// The Postquel parser must never panic on arbitrary input.
func TestPostquelParserNeverPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("parser panicked: %v", r)
		}
	}()
	rng := newDeterministicRand()
	alphabet := []byte(`abz019().,="'<>!+-*/ retrieve append create define rule on where do incal`)
	for i := 0; i < 3000; i++ {
		n := rng.Intn(80)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		_, _ = parse(string(buf))
	}
	seeds := []string{
		`retrieve (s.k, s.v) on Tuesdays using day where s.v > 2 and incal(s.d, Semester)`,
		`define temporal rule r on "[2]/DAYS:during:WEEKS" do ( append a (m = "x") )`,
		`create t (a int, b date, c calendar)`,
	}
	for _, seed := range seeds {
		for i := 0; i < 1000; i++ {
			b := []byte(seed)
			for k := 0; k < rng.Intn(3)+1; k++ {
				if len(b) > 1 {
					p := rng.Intn(len(b))
					b[p] = alphabet[rng.Intn(len(alphabet))]
				}
			}
			_, _ = parse(string(b))
		}
	}
}

func TestStoredCalendarAndDropThroughPostquel(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `define stored calendar HOLIDAYS values (31, 90, -3) granularity days`)
	res := mustExec(t, e, `show calendar HOLIDAYS`)
	if !strings.Contains(res.Msg, "(-3,-3)") || !strings.Contains(res.Msg, "(90,90)") {
		t.Errorf("stored calendar row:\n%s", res.Msg)
	}
	// incal against the stored calendar with an integer tick argument.
	mustExec(t, e, `create s (d date, n int)`)
	mustExec(t, e, `append s (d = "1987-01-31", n = 31)`)
	mustExec(t, e, `append s (d = "1987-02-01", n = 32)`)
	res = mustExec(t, e, `retrieve (s.n) where incal(s.n, HOLIDAYS)`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 31 {
		t.Errorf("incal by tick = %v", res.Rows)
	}
	res = mustExec(t, e, `retrieve (s.n) where incal(s.d, HOLIDAYS)`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 31 {
		t.Errorf("incal by date = %v", res.Rows)
	}
	mustExec(t, e, `drop calendar HOLIDAYS`)
	if _, err := e.ExecOne(`show calendar HOLIDAYS`); err == nil {
		t.Error("dropped calendar should be gone")
	}
	// Stored calendar parse errors.
	for _, bad := range []string{
		`define stored calendar X values ()`,
		`define stored calendar X values (1, "a")`,
		`define stored calendar X values (0)`,
		`define stored calendar X values (1) granularity frobs`,
		`define calendar Y as "DAYS" granularity frobs`,
		`define frob Z as "DAYS"`,
		`drop rule missing_rule`,
		`drop table missing_table`,
	} {
		if _, err := e.ExecOne(bad); err == nil {
			t.Errorf("Exec(%q) should fail", bad)
		}
	}
}

func TestDateTextComparisonNormalization(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create s (d date)`)
	mustExec(t, e, `append s (d = "1993-03-15")`)
	// Text literal on either side of a date comparison coerces to date.
	res := mustExec(t, e, `retrieve (s.d) where s.d >= "1993-03-01" and "1993-04-01" > s.d`)
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := e.ExecOne(`retrieve (s.d) where s.d = "not a date"`); err == nil {
		t.Error("bad date text should fail during comparison")
	}
	// Text concatenation and negative numbers.
	res = mustExec(t, e, `retrieve ("a" + "b", -3, 2 * -2) from s`)
	if res.Rows[0][0].S != "ab" || res.Rows[0][1].I != -3 || res.Rows[0][2].I != -4 {
		t.Errorf("exprs = %v", res.Rows[0])
	}
}

// now() reads the clock the engine was built with; an engine built without
// one refuses now() and temporal rules instead of dereferencing nil.
func TestEngineAccessorsAndSetClock(t *testing.T) {
	e, _ := newEngine(t)
	e = NewEngine(e.cal, e.rules, rules.NewVirtualClock(12345))
	mustExec(t, e, `create s (k int)`)
	mustExec(t, e, `append s (k = 1)`)
	res := mustExec(t, e, `retrieve (now()) from s`)
	if res.Rows[0][0].D != (chronology.Civil{Year: 1987, Month: 1, Day: 1}) {
		t.Errorf("now() under the engine's clock = %v", res.Rows[0][0])
	}
	e = NewEngine(e.cal, e.rules, nil)
	if _, err := e.ExecOne(`retrieve (now()) from s`); err == nil {
		t.Error("now() without a clock should fail")
	}
	if _, err := e.ExecOne(`define temporal rule r on DAYS do ( append s (k = 2) )`); err == nil {
		t.Error("a temporal rule without a clock should fail")
	}
}
