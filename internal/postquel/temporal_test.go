package postquel

import (
	"strings"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/rules"
)

// Event rules with temporal conditions: the where clause uses incal so the
// rule only fires when the incoming tuple's date falls inside a calendar —
// the paper's "Condition includes temporal conditions" case of §4.
func TestEventRuleWithTemporalCondition(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create trades (sym text, day date, px float)`)
	mustExec(t, e, `create flagged (sym text, day date)`)
	mustExec(t, e, `define calendar Tuesdays as "[2]/DAYS:during:WEEKS"`)
	mustExec(t, e, `define rule tuesday_trades on append to trades
		where incal(NEW.day, Tuesdays)
		do ( append flagged (sym = NEW.sym, day = NEW.day) )`)
	// Jan 5 1993 is a Tuesday; Jan 6 is not.
	mustExec(t, e, `append trades (sym = "A", day = "1993-01-05", px = 1.0)`)
	mustExec(t, e, `append trades (sym = "B", day = "1993-01-06", px = 2.0)`)
	mustExec(t, e, `append trades (sym = "C", day = "1993-01-12", px = 3.0)`)
	res := mustExec(t, e, `retrieve (flagged.sym)`)
	var got []string
	for _, r := range res.Rows {
		got = append(got, r[0].S)
	}
	if strings.Join(got, ",") != "A,C" {
		t.Errorf("flagged = %v, want A,C", got)
	}
}

// A cascade: rule 1's action appends to a table watched by rule 2.
func TestRuleCascade(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create a (v int)`)
	mustExec(t, e, `create b (v int)`)
	mustExec(t, e, `create c (v int)`)
	mustExec(t, e, `define rule ab on append to a do ( append b (v = NEW.v + 1) )`)
	mustExec(t, e, `define rule bc on append to b do ( append c (v = NEW.v + 1) )`)
	mustExec(t, e, `append a (v = 1)`)
	res := mustExec(t, e, `retrieve (c.v)`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Errorf("cascade result = %v", res.Rows)
	}
}

// An unbounded cascade trips the recursion guard, and the whole transaction
// (including the rule effects) rolls back.
func TestRuleCascadeBounded(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create loopy (v int)`)
	mustExec(t, e, `define rule self on append to loopy do ( append loopy (v = NEW.v + 1) )`)
	if _, err := e.ExecOne(`append loopy (v = 1)`); err == nil {
		t.Fatal("self-appending rule should abort")
	}
	res := mustExec(t, e, `retrieve (count(loopy.v))`)
	if res.Rows[0][0].I != 0 {
		t.Errorf("rows after aborted cascade = %v (must roll back)", res.Rows[0][0])
	}
}

// A rule on delete sees CURRENT; a rule on replace sees both.
func TestRuleTupleVariables(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create s (k text, v int)`)
	mustExec(t, e, `create log (what text, oldv int, newv int)`)
	mustExec(t, e, `define rule on_del on delete to s
		do ( append log (what = "del", oldv = CURRENT.v, newv = 0) )`)
	mustExec(t, e, `define rule on_rep on replace to s
		do ( append log (what = "rep", oldv = CURRENT.v, newv = NEW.v) )`)
	mustExec(t, e, `append s (k = "x", v = 10)`)
	mustExec(t, e, `replace s (v = 20) where s.k = "x"`)
	mustExec(t, e, `delete s where s.k = "x"`)
	res := mustExec(t, e, `retrieve (log.what, log.oldv, log.newv)`)
	if len(res.Rows) != 2 {
		t.Fatalf("log rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "rep" || res.Rows[0][1].I != 10 || res.Rows[0][2].I != 20 {
		t.Errorf("replace log = %v", res.Rows[0])
	}
	if res.Rows[1][0].S != "del" || res.Rows[1][1].I != 20 {
		t.Errorf("delete log = %v", res.Rows[1])
	}
}

// Temporal rule defined through Postquel whose action itself queries with a
// calendar on clause.
func TestTemporalRuleActionWithCalendar(t *testing.T) {
	e, clock := newEngine(t)
	mustExec(t, e, `create prices (day date, px float)`)
	mustExec(t, e, `create monthly (day date, px float)`)
	// Populate daily prices for January and February 1993.
	d := chronology.Civil{Year: 1993, Month: 1, Day: 1}
	for i := 0; i < 59; i++ {
		mustExec(t, e, `append prices (day = "`+d.String()+`", px = `+itoa(100+i)+`.0)`)
		d = d.AddDays(1)
	}
	mustExec(t, e, `define calendar MonthEnds as "[n]/DAYS:during:MONTHS"`)
	// On each month end, copy that day's price into the monthly table.
	mustExec(t, e, `define temporal rule snapshot on MonthEnds
		do ( append monthly (day = now(), px = 0.0) )`)
	cron, err := rules.NewDBCron(e.rules, chronology.SecondsPerDay, clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 59; i++ {
		if _, err := cron.AdvanceTo(clock.Advance(chronology.SecondsPerDay)); err != nil {
			t.Fatal(err)
		}
	}
	res := mustExec(t, e, `retrieve (monthly.day)`)
	if len(res.Rows) != 2 {
		t.Fatalf("monthly snapshots = %v", res.Rows)
	}
	if res.Rows[0][0].D != (chronology.Civil{Year: 1993, Month: 1, Day: 31}) {
		t.Errorf("first snapshot on %v", res.Rows[0][0])
	}
	if res.Rows[1][0].D != (chronology.Civil{Year: 1993, Month: 2, Day: 28}) {
		t.Errorf("second snapshot on %v", res.Rows[1][0])
	}
}

// The on clause and incal test each row's tick with Calendar.Contains. Both
// must keep exactly the rows the per-row definition they replaced kept —
// ToSet().Contains over the calendar evaluated on the rows' date span — for
// a calendar of point elements (checked against the weekday too) and one of
// multi-day elements.
func TestOnClauseAndIncalKeepTheSameRows(t *testing.T) {
	e, _ := newEngine(t)
	mustExec(t, e, `create prices (day date, px int)`)
	first := chronology.Civil{Year: 1993, Month: 1, Day: 1}
	const days = int64(120)
	for i := int64(0); i < days; i++ {
		mustExec(t, e, `append prices (day = "`+first.AddDays(i).String()+`", px = `+itoa(100+int(i))+`)`)
	}
	mustExec(t, e, `define calendar Tuesdays as "[2]/DAYS:during:WEEKS"`)
	mustExec(t, e, `define calendar FirstWeeks as "[1]/WEEKS:during:MONTHS"`)
	ch := e.cal.Chron()
	for _, name := range []string{"Tuesdays", "FirstWeeks"} {
		cal, err := e.cal.EvalExpr(name, first, first.AddDays(days-1))
		if err != nil {
			t.Fatal(err)
		}
		set := cal.ToSet()
		var want []chronology.Civil
		for i := int64(0); i < days; i++ {
			d := first.AddDays(i)
			in := set.Contains(ch.TickAt(cal.Granularity(), ch.EpochSecondsOf(d)))
			if name == "Tuesdays" && in != (d.Weekday() == chronology.Tuesday) {
				t.Fatalf("%v: reference membership %v disagrees with its weekday %v", d, in, d.Weekday())
			}
			if in {
				want = append(want, d)
			}
		}
		if len(want) == 0 || int64(len(want)) == days {
			t.Fatalf("%s selects %d of %d rows: the case tells nothing", name, len(want), days)
		}
		for _, q := range []string{
			`retrieve (prices.day) on ` + name,
			`retrieve (prices.day) where incal(prices.day, ` + name + `)`,
		} {
			res := mustExec(t, e, q)
			if len(res.Rows) != len(want) {
				t.Fatalf("%s: %d rows, want %d", q, len(res.Rows), len(want))
			}
			for i, row := range res.Rows {
				if row[0].D != want[i] {
					t.Fatalf("%s: row %d is %v, want %v", q, i, row[0].D, want[i])
				}
			}
		}
	}
}
