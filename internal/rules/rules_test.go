package rules

import (
	"strings"
	"testing"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/store"
)

func d(y, m, day int) chronology.Civil { return chronology.Civil{Year: y, Month: m, Day: day} }

func newEngine(t testing.TB) (*Engine, *caldb.Manager) {
	t.Helper()
	db := store.NewDB()
	cal, err := caldb.New(db, chronology.MustNew(chronology.DefaultEpoch))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cal)
	if err != nil {
		t.Fatal(err)
	}
	return eng, cal
}

func countingAction(name string, hits *[]int64) Action {
	return FuncAction{Name: name, Fn: func(tx *store.Txn, ev *store.Event, at int64) error {
		*hits = append(*hits, at)
		return nil
	}}
}

// Figure 4 end to end: "On Every Tuesday do Proc_X" — the rule is parsed,
// stored in RULE-INFO, its next trigger in RULE-TIME, and DBCRON fires it on
// each Tuesday of January 1993 under a virtual clock.
func TestFigure4TemporalRulePipeline(t *testing.T) {
	eng, cal := newEngine(t)
	ch := cal.Chron()
	start := ch.EpochSecondsOf(d(1993, 1, 1)) // Friday Jan 1 1993

	var hits []int64
	if err := eng.DefineTemporalRule("every_tuesday", "[2]/DAYS:during:WEEKS",
		countingAction("Proc_X", &hits), start); err != nil {
		t.Fatal(err)
	}

	// RULE-INFO carries the expression and plan; RULE-TIME the next trigger.
	info, err := eng.RuleInfoRow("every_tuesday")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"every_tuesday", "temporal", "[2]/DAYS:during:WEEKS", "GENERATE", "Proc_X"} {
		if !strings.Contains(info, want) {
			t.Errorf("RULE-INFO missing %q:\n%s", want, info)
		}
	}
	due, err := eng.DueWithin(start, 14*chronology.SecondsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	if len(due) != 1 {
		t.Fatalf("due = %v", due)
	}
	wantFirst := ch.EpochSecondsOf(d(1993, 1, 5)) // Tuesday Jan 5
	if due[0].At != wantFirst {
		t.Errorf("next trigger = %d, want %d (Jan 5 1993)", due[0].At, wantFirst)
	}

	// Drive DBCRON with probe period T = 1 day over five weeks.
	cron, err := NewDBCron(eng, chronology.SecondsPerDay, start)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewVirtualClock(start)
	for i := 0; i < 35; i++ {
		if _, err := cron.AdvanceTo(clock.Advance(chronology.SecondsPerDay)); err != nil {
			t.Fatal(err)
		}
	}
	// Tuesdays hit: Jan 5, 12, 19, 26, Feb 2 1993 (and none other).
	want := []chronology.Civil{d(1993, 1, 5), d(1993, 1, 12), d(1993, 1, 19), d(1993, 1, 26), d(1993, 2, 2)}
	if len(hits) != len(want) {
		t.Fatalf("fired %d times (%v), want %d", len(hits), hits, len(want))
	}
	for i, at := range hits {
		day := ch.CivilOf(at)
		if day != want[i] {
			t.Errorf("firing %d on %v, want %v", i, day, want[i])
		}
		if day.Weekday() != chronology.Tuesday {
			t.Errorf("firing %d not a Tuesday: %v", i, day)
		}
	}
	st := cron.Stats()
	if st.Fired != 5 {
		t.Errorf("Stats fired = %d", st.Fired)
	}
	if st.LateSum < 0 {
		t.Errorf("negative lateness %d", st.LateSum)
	}
}

// A daily rule with a weekly probe period exercises re-arming inside the
// probe window: no firing may be lost.
func TestDailyRuleWeeklyProbe(t *testing.T) {
	eng, cal := newEngine(t)
	ch := cal.Chron()
	start := ch.EpochSecondsOf(d(1993, 1, 1))
	var hits []int64
	if err := eng.DefineTemporalRule("daily", "DAYS", countingAction("daily", &hits), start); err != nil {
		t.Fatal(err)
	}
	cron, err := NewDBCron(eng, 7*chronology.SecondsPerDay, start)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewVirtualClock(start)
	for i := 0; i < 28; i++ {
		if _, err := cron.AdvanceTo(clock.Advance(chronology.SecondsPerDay)); err != nil {
			t.Fatal(err)
		}
	}
	if len(hits) != 28 {
		t.Fatalf("daily rule fired %d times in 28 days", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i]-hits[i-1] != chronology.SecondsPerDay {
			t.Errorf("gap between firings %d and %d: %d sec", i-1, i, hits[i]-hits[i-1])
		}
	}
}

// A daemon that falls behind (large clock jump) must fire overdue rules
// rather than lose them.
func TestOverdueFiringsNotLost(t *testing.T) {
	eng, cal := newEngine(t)
	ch := cal.Chron()
	start := ch.EpochSecondsOf(d(1993, 1, 1))
	var hits []int64
	if err := eng.DefineTemporalRule("daily", "DAYS", countingAction("daily", &hits), start); err != nil {
		t.Fatal(err)
	}
	cron, err := NewDBCron(eng, chronology.SecondsPerDay, start)
	if err != nil {
		t.Fatal(err)
	}
	// Jump ten days in one step.
	if _, err := cron.AdvanceTo(start + 10*chronology.SecondsPerDay); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 10 {
		t.Errorf("fired %d times after 10-day jump, want 10", len(hits))
	}
}

func TestEventRules(t *testing.T) {
	eng, cal := newEngine(t)
	db := cal.DB()
	schema, _ := store.NewSchema(store.Column{Name: "sym", Type: store.TText}, store.Column{Name: "px", Type: store.TFloat})
	if err := db.CreateTable("trades", schema); err != nil {
		t.Fatal(err)
	}
	var seen []string
	action := FuncAction{Name: "log", Fn: func(tx *store.Txn, ev *store.Event, _ int64) error {
		seen = append(seen, ev.Op.String()+":"+ev.New[0].S)
		return nil
	}}
	cond := func(tx *store.Txn, ev store.Event) (bool, error) { return ev.New[1].F > 100, nil }
	if err := eng.DefineEventRule("big_trades", store.EvAppend, "trades", cond, action); err != nil {
		t.Fatal(err)
	}
	err := db.RunTxn(func(tx *store.Txn) error {
		if _, err := tx.Append("trades", store.Row{store.NewText("IBM"), store.NewFloat(50)}); err != nil {
			return err
		}
		_, err := tx.Append("trades", store.Row{store.NewText("AAPL"), store.NewFloat(150)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "append:AAPL" {
		t.Errorf("event rule fired: %v", seen)
	}
	info, err := eng.RuleInfoRow("big_trades")
	if err != nil || !strings.Contains(info, "append on trades") {
		t.Errorf("info = %q, %v", info, err)
	}
}

func TestRuleValidationAndDrop(t *testing.T) {
	eng, cal := newEngine(t)
	start := cal.Chron().EpochSecondsOf(d(1993, 1, 1))
	noop := FuncAction{Name: "noop", Fn: func(*store.Txn, *store.Event, int64) error { return nil }}
	if err := eng.DefineTemporalRule("", "DAYS", noop, start); err == nil {
		t.Error("empty name should fail")
	}
	if err := eng.DefineTemporalRule("r", "DAYS", nil, start); err == nil {
		t.Error("nil action should fail")
	}
	if err := eng.DefineTemporalRule("r", "][", noop, start); err == nil {
		t.Error("bad expression should fail")
	}
	if err := eng.DefineTemporalRule("r", "NO_SUCH_CAL", noop, start); err == nil {
		t.Error("unknown calendar should fail")
	}
	if err := eng.DefineTemporalRule("r", "DAYS", noop, start); err != nil {
		t.Fatal(err)
	}
	if err := eng.DefineTemporalRule("R", "DAYS", noop, start); err == nil {
		t.Error("duplicate (case-insensitive) should fail")
	}
	if err := eng.DefineEventRule("r", store.EvAppend, "CALENDARS", nil, noop); err == nil {
		t.Error("name clash with temporal rule should fail")
	}
	if err := eng.DefineEventRule("e", store.EvAppend, "nope", nil, noop); err == nil {
		t.Error("missing table should fail")
	}
	if len(eng.RuleNames()) != 1 {
		t.Errorf("RuleNames = %v", eng.RuleNames())
	}
	if err := eng.DropRule("r"); err != nil {
		t.Fatal(err)
	}
	if err := eng.DropRule("r"); err == nil {
		t.Error("double drop should fail")
	}
	if _, err := eng.RuleInfoRow("r"); err == nil {
		t.Error("dropped rule should have no catalog row")
	}
	// RULE_TIME row removed too: nothing due.
	due, err := eng.DueWithin(start, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(due) != 0 {
		t.Errorf("due after drop = %v", due)
	}
}

func TestFailingActionSurfacesAndRetains(t *testing.T) {
	eng, cal := newEngine(t)
	ch := cal.Chron()
	start := ch.EpochSecondsOf(d(1993, 1, 1))
	calls := 0
	bad := FuncAction{Name: "bad", Fn: func(*store.Txn, *store.Event, int64) error {
		calls++
		if calls == 1 {
			return errStub
		}
		return nil
	}}
	if err := eng.DefineTemporalRule("flaky", "DAYS", bad, start); err != nil {
		t.Fatal(err)
	}
	cron, _ := NewDBCron(eng, chronology.SecondsPerDay, start)
	if _, err := cron.AdvanceTo(start + chronology.SecondsPerDay); err == nil {
		t.Fatal("expected action error")
	}
	// The engine did not advance RULE-TIME past the failed firing... the
	// firing was popped; a later advance re-probes and the rule fires again
	// at its (unchanged) trigger.
	if _, err := cron.AdvanceTo(start + 2*chronology.SecondsPerDay); err != nil {
		t.Fatal(err)
	}
	if calls < 2 {
		t.Errorf("action called %d times, want retry", calls)
	}
}

var errStub = &stubErr{}

type stubErr struct{}

func (*stubErr) Error() string { return "stub failure" }

func TestDBCronValidation(t *testing.T) {
	eng, _ := newEngine(t)
	if _, err := NewDBCron(eng, 0, 0); err == nil {
		t.Error("zero probe period should fail")
	}
	if _, err := NewDBCron(eng, -5, 0); err == nil {
		t.Error("negative probe period should fail")
	}
}

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock(100)
	if c.Now() != 100 {
		t.Error("start")
	}
	if c.Advance(50) != 150 || c.Now() != 150 {
		t.Error("advance")
	}
	c.Set(120) // never backwards
	if c.Now() != 150 {
		t.Error("Set must not go backwards")
	}
	c.Set(200)
	if c.Now() != 200 {
		t.Error("Set forward")
	}
}

// Temporal rules evaluated through the calendar catalog: EMP-DAYS as a rule.
func TestTemporalRuleWithDerivedCalendar(t *testing.T) {
	eng, cal := newEngine(t)
	ch := cal.Chron()
	ls := caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}
	if err := cal.DefineDerived("MonthEnds", "[n]/DAYS:during:MONTHS;", ls, caldb.GranAuto); err != nil {
		t.Fatal(err)
	}
	start := ch.EpochSecondsOf(d(1993, 1, 1))
	var hits []int64
	if err := eng.DefineTemporalRule("month_end", "MonthEnds", countingAction("alert", &hits), start); err != nil {
		t.Fatal(err)
	}
	cron, _ := NewDBCron(eng, chronology.SecondsPerDay, start)
	clock := NewVirtualClock(start)
	for i := 0; i < 92; i++ {
		if _, err := cron.AdvanceTo(clock.Advance(chronology.SecondsPerDay)); err != nil {
			t.Fatal(err)
		}
	}
	want := []chronology.Civil{d(1993, 1, 31), d(1993, 2, 28), d(1993, 3, 31)}
	if len(hits) != len(want) {
		t.Fatalf("fired %d times, want %d", len(hits), len(want))
	}
	for i, at := range hits {
		if got := ch.CivilOf(at); got != want[i] {
			t.Errorf("firing %d on %v, want %v", i, got, want[i])
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	eng, cal := newEngine(t)
	if eng.Cal() != cal {
		t.Error("Cal accessor")
	}
	if len(eng.Orphans()) != 0 {
		t.Error("fresh engine has no orphans")
	}
}
