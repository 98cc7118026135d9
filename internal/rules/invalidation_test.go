package rules

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/store"
)

// Redefining a calendar must reach rules already defined on it: the engine
// caches each rule's prepared (inlined) expression, so without
// generation-based invalidation a redefined PAY_DAYS would keep firing on
// the old schedule forever. The new schedule takes effect at the first
// recomputation after the change (i.e. after the already-armed trigger).
func TestRuleSeesRedefinedCalendar(t *testing.T) {
	eng, cal := newEngine(t)
	ch := cal.Chron()
	ls := caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}
	if err := cal.DefineDerived("PAY", "{[1]/DAYS:during:WEEKS;}", ls, caldb.GranAuto); err != nil {
		t.Fatal(err)
	}
	start := ch.EpochSecondsOf(d(1993, 1, 1)) // Friday
	var hits []int64
	if err := eng.DefineTemporalRule("payday", "PAY", countingAction("pay", &hits), start); err != nil {
		t.Fatal(err)
	}
	cron, err := NewDBCron(eng, chronology.SecondsPerDay, start)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewVirtualClock(start)
	advanceDays := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cron.AdvanceTo(clock.Advance(chronology.SecondsPerDay)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Through Jan 5: the Monday Jan 4 firing re-arms for Monday Jan 11.
	advanceDays(4)
	// Paydays move to Wednesdays. The armed Jan 11 trigger still fires (it
	// was scheduled before the change); its recomputation must pick up the
	// new definition.
	if err := cal.Drop("PAY"); err != nil {
		t.Fatal(err)
	}
	if err := cal.DefineDerived("PAY", "{[3]/DAYS:during:WEEKS;}", ls, caldb.GranAuto); err != nil {
		t.Fatal(err)
	}
	advanceDays(24) // through Jan 29
	want := []chronology.Civil{
		d(1993, 1, 4),  // Monday (old schedule)
		d(1993, 1, 11), // Monday (armed before the change)
		d(1993, 1, 13), // Wednesday (new schedule)
		d(1993, 1, 20),
		d(1993, 1, 27),
	}
	if len(hits) != len(want) {
		days := make([]chronology.Civil, len(hits))
		for i, at := range hits {
			days[i] = ch.CivilOf(at)
		}
		t.Fatalf("fired on %v, want %v", days, want)
	}
	for i, at := range hits {
		if day := ch.CivilOf(at); day != want[i] {
			t.Errorf("firing %d on %v, want %v", i, day, want[i])
		}
	}
}

// Replacing stored holidays keeps their shape, so the rule's Prepared entry
// survives the write; its pattern must not. A rule on the last business day
// of the month, armed for Wednesday 1993-06-30, fires on Tuesday the 29th once
// the 30th becomes a holiday, and the whole walk is answered by arithmetic on
// the pattern: no probe of the window definition.
func TestRuleFollowsReplacedHolidays(t *testing.T) {
	eng, cal := newEngine(t)
	ch := cal.Chron()
	ls := caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}
	holidays := func(days ...chronology.Civil) *calendar.Calendar {
		ticks := make([]chronology.Tick, len(days))
		for i, c := range days {
			ticks[i] = ch.DayTick(c)
		}
		c, err := calendar.FromPoints(chronology.Day, ticks)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if err := cal.DefineStored("HOLS", holidays(d(1993, 7, 5)), ls); err != nil {
		t.Fatal(err)
	}
	if err := cal.DefineDerived("BIZ", "{wd = [1,2,3,4,5]/DAYS:during:WEEKS; return (wd - HOLS);}", ls, caldb.GranAuto); err != nil {
		t.Fatal(err)
	}
	start := ch.EpochSecondsOf(d(1993, 6, 1))
	var hits []int64
	if err := eng.DefineTemporalRule("eom", "[n]/BIZ:during:MONTHS", countingAction("eom", &hits), start); err != nil {
		t.Fatal(err)
	}
	cron, err := NewDBCron(eng, chronology.SecondsPerDay, start)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewVirtualClock(start)
	advanceDays := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cron.AdvanceTo(clock.Advance(chronology.SecondsPerDay)); err != nil {
				t.Fatal(err)
			}
		}
	}
	advanceDays(10) // through 1993-06-11, armed for the 30th
	if err := cal.ReplaceStored("HOLS", holidays(d(1993, 6, 30), d(1993, 7, 5))); err != nil {
		t.Fatal(err)
	}
	advanceDays(50) // through 1993-07-31
	want := []chronology.Civil{d(1993, 6, 29), d(1993, 7, 30)}
	got := make([]chronology.Civil, len(hits))
	for i, at := range hits {
		got[i] = ch.CivilOf(at)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fired on %v, want %v", got, want)
	}
	if n := cal.WindowEvals(); n != 0 {
		t.Errorf("%d window evaluations, want 0: the pattern answers", n)
	}
}

// The daemon firing rules, sessions evaluating expressions, and sessions
// defining further rules all share the engine and the materialization cache;
// they must be safe to run concurrently (the CI race job runs this package
// under -race).
func TestConcurrentFiringEvaluationDefinition(t *testing.T) {
	eng, cal := newEngine(t)
	ch := cal.Chron()
	start := ch.EpochSecondsOf(d(1993, 1, 1))
	var mu sync.Mutex
	var hits []int64
	counting := FuncAction{Name: "count", Fn: func(_ *store.Txn, _ *store.Event, at int64) error {
		mu.Lock()
		hits = append(hits, at)
		mu.Unlock()
		return nil
	}}
	if err := eng.DefineTemporalRule("weekly", "[2]/DAYS:during:WEEKS", counting, start); err != nil {
		t.Fatal(err)
	}
	cron, err := NewDBCron(eng, chronology.SecondsPerDay, start)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		clock := NewVirtualClock(start)
		for i := 0; i < 28; i++ {
			if _, err := cron.AdvanceTo(clock.Advance(chronology.SecondsPerDay)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			yr := 1990 + i%4
			if _, err := cal.EvalExpr("WEEKS + MONTHS", d(yr, 1, 1), d(yr, 12, 31)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("extra%d", i)
			if err := eng.DefineTemporalRule(name, "[n]/DAYS:during:MONTHS", counting, start); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(hits) == 0 {
		t.Fatal("no rule fired during the concurrent run")
	}
}
