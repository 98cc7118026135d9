package rules

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"calsys/internal/chronology"
	"calsys/internal/faultinject"
	"calsys/internal/rules/journal"
	"calsys/internal/store"
)

func openJournal(t *testing.T, opts ...journal.Option) *journal.Journal {
	t.Helper()
	j, err := journal.Open(filepath.Join(t.TempDir(), "firing.journal"),
		append([]journal.Option{journal.WithSync(false)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// A durable daemon retries a flaky action with backoff instead of dropping
// the firing, and the firing commits exactly once.
func TestRetryBackoffThenSuccess(t *testing.T) {
	eng, cal := newEngine(t)
	start := cal.Chron().EpochSecondsOf(d(1993, 1, 1))
	calls := 0
	flaky := FuncAction{Name: "flaky", Fn: func(*store.Txn, *store.Event, int64) error {
		calls++
		if calls <= 2 {
			return errStub
		}
		return nil
	}}
	if err := eng.DefineTemporalRule("flaky", "DAYS", flaky, start); err != nil {
		t.Fatal(err)
	}
	cron, err := NewDBCronWith(eng, chronology.SecondsPerDay, start, CronOptions{
		Journal: openJournal(t),
		Retry:   RetryPolicy{MaxAttempts: 5, BaseDelay: 2, MaxDelay: 60},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// First trigger is start+1d; two failures back off 2s then 4s.
	at := start + chronology.SecondsPerDay
	fired, err := cron.AdvanceTo(at)
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 0 || calls != 1 {
		t.Fatalf("after first attempt: fired=%v calls=%d", fired, calls)
	}
	// Walk time forward second by second so each retry runs at its backed-
	// off instant (2s after attempt 1, 4s after attempt 2).
	var total []Firing
	for now := at; now <= at+10; now++ {
		fired, err = cron.AdvanceTo(now)
		if err != nil {
			t.Fatal(err)
		}
		total = append(total, fired...)
	}
	if len(total) != 1 || calls != 3 {
		t.Fatalf("after retries: fired=%v calls=%d", total, calls)
	}
	st := cron.Stats()
	if st.Fired != 1 || st.Retries != 2 || st.Dead != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// A permanently failing action lands in RULE-DEADLETTER once the retry
// budget is exhausted — and never blocks other rules or its own later
// triggers.
func TestDeadLetterAfterBudget(t *testing.T) {
	eng, cal := newEngine(t)
	start := cal.Chron().EpochSecondsOf(d(1993, 1, 1))
	var badCalls, goodHits []int64
	bad := FuncAction{Name: "bad", Fn: func(_ *store.Txn, _ *store.Event, at int64) error {
		badCalls = append(badCalls, at)
		if at == start+chronology.SecondsPerDay {
			return errors.New("disk on fire")
		}
		return nil
	}}
	if err := eng.DefineTemporalRule("sick", "DAYS", bad, start); err != nil {
		t.Fatal(err)
	}
	if err := eng.DefineTemporalRule("healthy", "DAYS", countingAction("good", &goodHits), start); err != nil {
		t.Fatal(err)
	}
	j := openJournal(t)
	cron, err := NewDBCronWith(eng, chronology.SecondsPerDay, start, CronOptions{
		Journal: j,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: 1, MaxDelay: 2},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	end := start + 4*chronology.SecondsPerDay
	for now := start; now <= end; now += 600 {
		if _, err := cron.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
	}
	dls, err := eng.DeadLetters()
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != 1 {
		t.Fatalf("dead letters = %+v", dls)
	}
	dl := dls[0]
	if dl.Rule != "sick" || dl.At != start+chronology.SecondsPerDay || dl.Attempts != 3 ||
		!strings.Contains(dl.LastError, "disk on fire") {
		t.Errorf("dead letter = %+v", dl)
	}
	// The healthy rule fired every day, and the sick rule's LATER triggers
	// fired too — the dead instant did not wedge the schedule.
	if len(goodHits) != 4 {
		t.Errorf("healthy rule fired %d times, want 4", len(goodHits))
	}
	var laterOK int
	for _, at := range badCalls {
		if at > start+chronology.SecondsPerDay {
			laterOK++
		}
	}
	if laterOK != 3 {
		t.Errorf("sick rule's later triggers fired %d times, want 3 (calls=%v)", laterOK, badCalls)
	}
	if st := cron.Stats(); st.Dead != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The journal closed the firing out as dead. State() is what the journal
	// last replayed, so compact (which replays the file) before reading it:
	// only the next probe window's intents may still be pending.
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, p := range j.State().Pending {
		if p.At <= end {
			t.Errorf("journal pending = %+v", p)
		}
	}
}

// A panicking action is isolated: converted to an error, retried, and
// dead-lettered like any other failure — the daemon survives.
func TestPanicIsolation(t *testing.T) {
	eng, cal := newEngine(t)
	start := cal.Chron().EpochSecondsOf(d(1993, 1, 1))
	boom := FuncAction{Name: "boom", Fn: func(*store.Txn, *store.Event, int64) error {
		panic("kaboom")
	}}
	if err := eng.DefineTemporalRule("panicky", "DAYS", boom, start); err != nil {
		t.Fatal(err)
	}
	cron, err := NewDBCronWith(eng, chronology.SecondsPerDay, start, CronOptions{
		Journal: openJournal(t),
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: 1, MaxDelay: 1},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for now := start; now <= start+2*chronology.SecondsPerDay; now += 600 {
		if _, err := cron.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
	}
	dls, _ := eng.DeadLetters()
	if len(dls) == 0 || !strings.Contains(dls[0].LastError, "panicked") {
		t.Fatalf("dead letters = %+v", dls)
	}
}

// A stuck action trips the per-action deadline; when the straggler
// eventually commits, the retry's dedup check sees the advanced RULE-TIME
// and does not execute the action a second time.
func TestActionDeadline(t *testing.T) {
	eng, cal := newEngine(t)
	start := cal.Chron().EpochSecondsOf(d(1993, 1, 1))
	var calls atomic.Int64
	slow := FuncAction{Name: "slow", Fn: func(*store.Txn, *store.Event, int64) error {
		calls.Add(1)
		time.Sleep(100 * time.Millisecond)
		return nil
	}}
	if err := eng.DefineTemporalRule("slow", "DAYS", slow, start); err != nil {
		t.Fatal(err)
	}
	at := start + chronology.SecondsPerDay
	if err := eng.fireChecked("slow", at, 10*time.Millisecond, nil); !errors.Is(err, ErrActionTimeout) {
		t.Fatalf("err = %v, want deadline", err)
	}
	// Let the straggler commit, then retry: it must dedup, not re-execute.
	time.Sleep(200 * time.Millisecond)
	if err := eng.fireChecked("slow", at, 10*time.Millisecond, nil); err != nil {
		t.Fatalf("retry after straggler commit: %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("action executed %d times, want 1", n)
	}
}

// Regression for the stale scheduled-set bug: dropping (or redefining) a
// rule while it sits in the probe window must not suppress the successor's
// firings, and the dropped rule's wheel entries must go with it.
func TestScheduledBookkeepingOnDropAndRedefine(t *testing.T) {
	eng, cal := newEngine(t)
	start := cal.Chron().EpochSecondsOf(d(1993, 1, 1))
	var oldHits, newHits []int64
	if err := eng.DefineTemporalRule("daily", "DAYS", countingAction("old", &oldHits), start); err != nil {
		t.Fatal(err)
	}
	cron, err := NewDBCron(eng, 7*chronology.SecondsPerDay, start)
	if err != nil {
		t.Fatal(err)
	}
	// Probe happens; the rule is now scheduled inside the 7-day window.
	if _, err := cron.AdvanceTo(start + 3600); err != nil {
		t.Fatal(err)
	}
	if n := cron.queue.size(); n != 1 {
		t.Fatalf("pending = %d, want the daily rule scheduled", n)
	}
	// Drop and redefine before the firing instant.
	if err := eng.DropRule("daily"); err != nil {
		t.Fatal(err)
	}
	if got := cron.Stats().Pending; got != 0 {
		t.Fatalf("wheel not purged on drop: %d entries", got)
	}
	if err := eng.DefineTemporalRule("DAILY", "DAYS", countingAction("new", &newHits), start+3600); err != nil {
		t.Fatal(err)
	}
	for nowd := int64(1); nowd <= 7; nowd++ {
		if _, err := cron.AdvanceTo(start + nowd*chronology.SecondsPerDay); err != nil {
			t.Fatal(err)
		}
	}
	if len(oldHits) != 0 {
		t.Errorf("dropped rule fired: %v", oldHits)
	}
	// Without the fix the stale scheduled entry suppresses every firing
	// until the next window rollover.
	if len(newHits) != 7 {
		t.Errorf("redefined rule fired %d times in 7 days, want 7", len(newHits))
	}
}

// Regression for the stranded-rule bug: one failed journal write (or an
// injected, non-crash fault in the ack window) surfaces once from AdvanceTo
// and costs no firing — the rule's scheduled key is cleared, so the next
// probe re-arms it from RULE-TIME and every day fires exactly once.
func TestJournalWriteFailureDoesNotStrandRule(t *testing.T) {
	cases := []struct {
		name  string
		site  string
		ahead int // which upcoming hit of the site fails
	}{
		{"ack window", SiteAck, 1},
		{"B record", journal.SiteAppend, 1},
		{"A record", journal.SiteAppend, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, cal := newEngine(t)
			start := cal.Chron().EpochSecondsOf(d(1993, 1, 1))
			var hits []int64
			if err := eng.DefineTemporalRule("daily", "DAYS", countingAction("n", &hits), start); err != nil {
				t.Fatal(err)
			}
			inj := faultinject.New(1)
			cron, err := NewDBCronWith(eng, chronology.SecondsPerDay, start, CronOptions{
				Journal: openJournal(t, journal.WithFaults(inj)),
				Faults:  inj,
				Seed:    1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var errs []error
			for day := int64(0); day <= 10; day++ {
				if day == 4 {
					// The probe at day 3 journaled day 4's S record; the
					// next append is its B record, the one after its A.
					inj.FailAt(tc.site, inj.Count(tc.site)+tc.ahead)
				}
				if _, err := cron.AdvanceTo(start + day*chronology.SecondsPerDay); err != nil {
					errs = append(errs, err)
				}
			}
			if len(errs) != 1 || !errors.Is(errs[0], faultinject.ErrInjected) {
				t.Fatalf("AdvanceTo errors = %v, want the one injected fault", errs)
			}
			seen := map[int64]int{}
			for _, at := range hits {
				seen[at]++
			}
			for day := int64(1); day <= 10; day++ {
				if n := seen[start+day*chronology.SecondsPerDay]; n != 1 {
					t.Errorf("day %d fired %d times, want 1 (hits %d)", day, n, len(hits))
				}
			}
			if len(hits) != 10 {
				t.Errorf("fired %d times, want 10", len(hits))
			}
		})
	}
}

// Satellite: DefineTemporalRule is atomic — a failure after the RULE-INFO
// write must leave no partial catalog rows behind, and the name stays
// definable.
func TestDefineTemporalRuleAtomicUnderFault(t *testing.T) {
	eng, cal := newEngine(t)
	start := cal.Chron().EpochSecondsOf(d(1993, 1, 1))
	inj := faultinject.New(1)
	inj.FailAt(SiteDefineRuleTime, 1)
	eng.SetFaults(inj)
	var hits []int64
	if err := eng.DefineTemporalRule("daily", "DAYS", countingAction("n", &hits), start); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	for _, table := range []string{RuleInfoTable, RuleTimeTable} {
		tab, _ := eng.db.Table(table)
		if tab.Len() != 0 {
			t.Errorf("%s has %d rows after failed define", table, tab.Len())
		}
	}
	// The fault is spent; the same name defines cleanly now.
	if err := eng.DefineTemporalRule("daily", "DAYS", countingAction("n", &hits), start); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DueWithin(start, 2*chronology.SecondsPerDay); err != nil {
		t.Fatal(err)
	}
}

// DefineTemporalRule is DefineTemporalRules of one def: the same script —
// a definition, its refusals, and an orphan redefinition that fails once in
// the transaction and then succeeds — leaves the same catalog rows, errors
// and orphan set through either entry point.
func TestDefineOneEqualsBatchOfOne(t *testing.T) {
	type definer func(e *Engine, name, expr string, a Action, now int64) error
	one := func(e *Engine, name, expr string, a Action, now int64) error {
		return e.DefineTemporalRule(name, expr, a, now)
	}
	batch := func(e *Engine, name, expr string, a Action, now int64) error {
		return e.DefineTemporalRules(now, []TemporalRuleDef{{Name: name, CalExpr: expr, Action: a}})
	}
	run := func(t *testing.T, define definer) []string {
		eng, cal := newEngine(t)
		start := cal.Chron().EpochSecondsOf(d(1993, 1, 1))
		var hits []int64
		act := countingAction("Proc_X", &hits)
		var log []string
		note := func(step string, e *Engine, err error) {
			log = append(log, fmt.Sprintf("%s: err=%v", step, err))
			for _, table := range []string{RuleInfoTable, RuleTimeTable} {
				tab, _ := e.db.Table(table)
				tab.Scan(func(_ int64, row store.Row) bool {
					log = append(log, fmt.Sprintf("  %s %v", table, row))
					return true
				})
			}
			log = append(log, "  orphans="+strings.Join(e.Orphans(), ","))
		}

		err := define(eng, "tue", "[2]/DAYS:during:WEEKS", act, start)
		if err != nil {
			t.Fatal(err)
		}
		note("define", eng, err)
		if err = define(eng, "TUE", "DAYS", act, start); !errors.Is(err, ErrAlreadyDefined) {
			t.Errorf("duplicate name: err = %v, want ErrAlreadyDefined", err)
		}
		note("duplicate", eng, err)
		for _, bad := range []struct {
			step, name, expr string
			act              Action
		}{
			{"nil action", "x", "DAYS", nil},
			{"empty name", " ", "DAYS", act},
			{"unparsable", "x", "DAYS:during:", act},
			{"undefined calendar", "x", "[1]/NOSUCH:during:WEEKS", act},
		} {
			if err = define(eng, bad.name, bad.expr, bad.act, start); err == nil {
				t.Errorf("%s: accepted", bad.step)
			}
			note(bad.step, eng, err)
		}

		// A restarted engine sees tue's rows as an orphan. A redefinition
		// that dies between its RULE-INFO and RULE-TIME appends must put the
		// claim back and leave the old rows; the retry replaces them.
		eng2, err := NewEngine(cal)
		if err != nil {
			t.Fatal(err)
		}
		inj := faultinject.New(1)
		inj.FailAt(SiteDefineRuleTime, 1)
		eng2.SetFaults(inj)
		later := start + 10*chronology.SecondsPerDay
		if err = define(eng2, "tue", "[3]/DAYS:during:WEEKS", act, later); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("faulted redefinition: err = %v, want injected", err)
		}
		if got := eng2.Orphans(); len(got) != 1 || got[0] != "tue" {
			t.Errorf("orphans after failed redefinition = %v, want [tue]", got)
		}
		note("orphan redefinition, faulted", eng2, err)
		if err = define(eng2, "tue", "[3]/DAYS:during:WEEKS", act, later); err != nil {
			t.Fatal(err)
		}
		if got := eng2.Orphans(); len(got) != 0 {
			t.Errorf("orphans after redefinition = %v, want none", got)
		}
		note("orphan redefinition", eng2, err)
		return log
	}
	a, b := run(t, one), run(t, batch)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("DefineTemporalRule and a batch of one diverge:\n--- one\n%s\n--- batch\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
	// No step leaves a partial or stray row: one of each table at all 8 steps.
	for _, table := range []string{RuleInfoTable, RuleTimeTable} {
		if n := strings.Count(strings.Join(a, "\n"), "\n  "+table+" "); n != 8 {
			t.Errorf("transcript has %d %s rows over 8 steps, want one a step:\n%s", n, table, strings.Join(a, "\n"))
		}
	}
}

// CatchUpPolicy round-trips through its string form.
func TestCatchUpPolicyParse(t *testing.T) {
	for _, p := range []CatchUpPolicy{FireAll, FireLast, SkipMissed} {
		got, err := ParseCatchUpPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round-trip %v: got %v err %v", p, got, err)
		}
	}
	if _, err := ParseCatchUpPolicy("yolo"); err == nil {
		t.Error("bad policy accepted")
	}
}

// Backoff grows exponentially, caps at MaxDelay, and stays deterministic
// for a fixed seed.
func TestBackoffShape(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 9, BaseDelay: 2, MaxDelay: 30}
	var prev int64
	for attempt := 1; attempt <= 8; attempt++ {
		got := p.backoff(attempt, nil)
		if got < prev {
			t.Errorf("backoff shrank at attempt %d: %d < %d", attempt, got, prev)
		}
		if got > 30 {
			t.Errorf("backoff over cap at attempt %d: %d", attempt, got)
		}
		prev = got
	}
	if p.backoff(1, nil) != 2 || p.backoff(2, nil) != 4 || p.backoff(8, nil) != 30 {
		t.Errorf("backoff schedule: %d %d %d", p.backoff(1, nil), p.backoff(2, nil), p.backoff(8, nil))
	}
}
