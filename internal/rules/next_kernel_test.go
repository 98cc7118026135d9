package rules

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/plan"
	"calsys/internal/store"
)

// DueWithin's boundary is inclusive: a trigger exactly at now+T is due, one
// second past it is not.
func TestDueWithinBoundaryInclusive(t *testing.T) {
	eng, cal := newEngine(t)
	ch := cal.Chron()
	start := ch.EpochSecondsOf(d(1993, 1, 1)) // Friday
	var hits []int64
	if err := eng.DefineTemporalRule("tue", "[2]/DAYS:during:WEEKS", countingAction("tue", &hits), start); err != nil {
		t.Fatal(err)
	}
	delta := ch.EpochSecondsOf(d(1993, 1, 5)) - start // next trigger: Tuesday Jan 5
	due, err := eng.DueWithin(start, delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(due) != 1 || due[0].Rule != "tue" {
		t.Fatalf("DueWithin(start, exactly to the trigger) = %v, want the rule due", due)
	}
	due, err = eng.DueWithin(start, delta-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(due) != 0 {
		t.Fatalf("DueWithin(start, one second short) = %v, want empty", due)
	}
}

// A rule whose expression has no instant within the lookahead horizon parks
// on the noTrigger sentinel, and no probe window — however large — may ever
// schedule it.
func TestDormantRuleNeverScheduled(t *testing.T) {
	eng, cal := newEngine(t)
	ch := cal.Chron()
	start := ch.EpochSecondsOf(d(1993, 1, 1))
	var hits []int64
	// Day ticks 10–20 fall in January 1987, six years before `start`.
	if err := eng.DefineTemporalRule("past", "DAYS:during:interval(10, 20)", countingAction("past", &hits), start); err != nil {
		t.Fatal(err)
	}
	if got := eng.nextOf("past"); got != noTrigger {
		t.Fatalf("nextOf = %d, want the noTrigger sentinel", got)
	}
	if stored, ok := eng.storedNext("past"); !ok || stored != noTrigger {
		t.Fatalf("RULE_TIME = %d,%v, want the persisted sentinel", stored, ok)
	}
	// Even a probe window reaching past the sentinel value must skip it.
	due, err := eng.DueWithin(start, noTrigger)
	if err != nil {
		t.Fatal(err)
	}
	if len(due) != 0 {
		t.Fatalf("DueWithin(start, huge T) = %v, want empty", due)
	}
	cron, err := NewDBCron(eng, 365*chronology.SecondsPerDay, start)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cron.AdvanceTo(start + 3*365*chronology.SecondsPerDay); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("dormant rule fired %d times", len(hits))
	}
}

// A rule that re-arms inside the current probe window fires at its instant
// without waiting for the next probe: one AdvanceTo spanning a whole weekly
// window executes every daily firing in it, driven by a single probe.
func TestReArmInsideWindowFiresWithoutProbe(t *testing.T) {
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
	// One step to mid-window: the only probe so far is the one at start,
	// whose window held only the Jan 2 firing; Jan 3–6 exist solely because
	// each firing re-armed its successor into the live window.
	if _, err := cron.AdvanceTo(start + 6*chronology.SecondsPerDay); err != nil {
		t.Fatal(err)
	}
	want := []chronology.Civil{d(1993, 1, 2), d(1993, 1, 3), d(1993, 1, 4), d(1993, 1, 5), d(1993, 1, 6), d(1993, 1, 7)}
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

// Many rules over few distinct expressions share one Prepared entry per
// expression, the whole fleet's next-instant work runs no window evaluation
// (every expression here answers from its pattern), and peer rules fire on
// identical instants.
func TestSharedPlanFanOut(t *testing.T) {
	eng, cal := newEngine(t)
	ch := cal.Chron()
	start := ch.EpochSecondsOf(d(1993, 1, 1))
	exprs := []string{"[1]/DAYS:during:WEEKS", "[3]/DAYS:during:WEEKS", "[n]/DAYS:during:MONTHS"}
	hits := make([]map[string][]int64, len(exprs))
	var defs []TemporalRuleDef
	for e := range exprs {
		hits[e] = map[string][]int64{}
		for i := 0; i < 34; i++ {
			name := fmt.Sprintf("r%d_%d", e, i)
			eIdx, nm := e, name
			defs = append(defs, TemporalRuleDef{Name: name, CalExpr: exprs[e],
				Action: FuncAction{Name: "count", Fn: func(_ *store.Txn, _ *store.Event, at int64) error {
					hits[eIdx][nm] = append(hits[eIdx][nm], at)
					return nil
				}}})
		}
	}
	if err := eng.DefineTemporalRules(start, defs); err != nil {
		t.Fatal(err)
	}
	if n := cal.PreparedStats().Entries; n != len(exprs) {
		t.Fatalf("%d rules resolved into %d Prepared entries, want %d", len(defs), n, len(exprs))
	}
	cron, err := NewDBCron(eng, chronology.SecondsPerDay, start)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewVirtualClock(start)
	for i := 0; i < 60; i++ {
		if _, err := cron.AdvanceTo(clock.Advance(chronology.SecondsPerDay)); err != nil {
			t.Fatal(err)
		}
	}
	for e := range exprs {
		var ref []int64
		for name, got := range hits[e] {
			if len(got) == 0 {
				t.Fatalf("rule %s never fired", name)
			}
			if ref == nil {
				ref = got
				continue
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("peer rules of %q disagree: %v vs %v", exprs[e], got, ref)
			}
		}
	}
	if n := cal.PreparedStats().Entries; n != len(exprs) {
		t.Fatalf("after 60 days: %d Prepared entries, want %d", n, len(exprs))
	}
	// 102 rules × ~20 firings each, all answered by pattern arithmetic; the
	// seed path would have run one 730-day evaluation per firing.
	if n := cal.WindowEvals(); n != 0 {
		t.Errorf("fleet cost %d window evaluations, want 0", n)
	}
}

// RULE-INFO shows a rule's plan over the lookahead window of the instant the
// rule is defined at, whatever queries on the same expression ran before: a
// rule defined after 60 days of firings of a peer shows the plan over its own
// definition instant, for an expression the pattern answers and for one
// answered by evaluating the window.
func TestRuleInfoPlanOverDefinitionHorizon(t *testing.T) {
	eng, cal := newEngine(t)
	eng.LookaheadDays = 140
	ch := cal.Chron()
	t0, t1 := ch.EpochSecondsOf(d(1993, 1, 1)), ch.EpochSecondsOf(d(1993, 3, 2))
	exprs := []string{"[2]/DAYS:during:WEEKS", "[1]/DAYS:during:caloperate(WEEKS, 2)"}
	planAt := func(src string, at int64) string {
		t.Helper()
		l, err := cal.Prepared("", src).Lowered()
		if err != nil {
			t.Fatal(err)
		}
		win, err := plan.HorizonWindow(ch, l.Gran, at, eng.LookaheadDays)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Compile(cal.Env(), l.Expr, nil, l.Gran, win)
		if err != nil {
			t.Fatal(err)
		}
		return "Plan     | " + strings.ReplaceAll(p.String(), "\n", " ; ") + "\n"
	}
	noop := FuncAction{Name: "noop", Fn: func(*store.Txn, *store.Event, int64) error { return nil }}
	check := func(name, src string, at int64) {
		t.Helper()
		info, err := eng.RuleInfoRow(name)
		if err != nil {
			t.Fatal(err)
		}
		if want := planAt(src, at); !strings.Contains(info, want) {
			t.Errorf("RULE-INFO of %s over %q:\n%s\nwant the plan over the horizon of %v:\n%s", name, src, info, ch.CivilOf(at), want)
		}
	}
	for i, src := range exprs {
		if err := eng.DefineTemporalRule(fmt.Sprintf("a%d", i), src, noop, t0); err != nil {
			t.Fatal(err)
		}
	}
	cron, err := NewDBCron(eng, chronology.SecondsPerDay, t0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cron.AdvanceTo(t1); err != nil {
		t.Fatal(err)
	}
	if n := cal.WindowEvals(); n < 2 {
		t.Fatalf("%q fired on no window evaluation (%d in all): the test shows nothing", exprs[1], n)
	}
	for i, src := range exprs {
		if err := eng.DefineTemporalRule(fmt.Sprintf("b%d", i), src, noop, t1); err != nil {
			t.Fatal(err)
		}
		if planAt(src, t0) == planAt(src, t1) {
			t.Fatalf("%q renders one plan over both horizons: the test shows nothing", src)
		}
		check(fmt.Sprintf("a%d", i), src, t0)
		check(fmt.Sprintf("b%d", i), src, t1)
	}
}

// Batch definition must be observationally identical to defining the same
// rules one by one: same RULE-TIME triggers, same plan text, same firings.
func TestBatchDefineMatchesIndividual(t *testing.T) {
	type ruleSpec struct{ name, expr string }
	specs := []ruleSpec{
		{"a1", "[2]/DAYS:during:WEEKS"},
		{"a2", "[2]/DAYS:during:WEEKS"},
		{"b1", "[n]/DAYS:during:MONTHS"},
		{"b2", "[n]/DAYS:during:MONTHS"},
		{"c1", "DAYS"},
		{"d1", "[3]/WEEKS:overlaps:MONTHS"},
	}
	run := func(batch bool) (map[string][]int64, map[string]int64, map[string]string) {
		eng, cal := newEngine(t)
		ch := cal.Chron()
		start := ch.EpochSecondsOf(d(1993, 1, 1))
		fired := map[string][]int64{}
		action := func(name string) Action {
			return FuncAction{Name: "count", Fn: func(_ *store.Txn, _ *store.Event, at int64) error {
				fired[name] = append(fired[name], at)
				return nil
			}}
		}
		if batch {
			var defs []TemporalRuleDef
			for _, s := range specs {
				defs = append(defs, TemporalRuleDef{Name: s.name, CalExpr: s.expr, Action: action(s.name)})
			}
			if err := eng.DefineTemporalRules(start, defs); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, s := range specs {
				if err := eng.DefineTemporalRule(s.name, s.expr, action(s.name), start); err != nil {
					t.Fatal(err)
				}
			}
		}
		nexts := map[string]int64{}
		plans := map[string]string{}
		for _, s := range specs {
			n, ok := eng.storedNext(s.name)
			if !ok {
				t.Fatalf("no RULE_TIME row for %s", s.name)
			}
			nexts[s.name] = n
			info, err := eng.RuleInfoRow(s.name)
			if err != nil {
				t.Fatal(err)
			}
			plans[s.name] = info
		}
		cron, err := NewDBCron(eng, chronology.SecondsPerDay, start)
		if err != nil {
			t.Fatal(err)
		}
		clock := NewVirtualClock(start)
		for i := 0; i < 60; i++ {
			if _, err := cron.AdvanceTo(clock.Advance(chronology.SecondsPerDay)); err != nil {
				t.Fatal(err)
			}
		}
		return fired, nexts, plans
	}
	bFired, bNexts, bPlans := run(true)
	iFired, iNexts, iPlans := run(false)
	if !reflect.DeepEqual(bNexts, iNexts) {
		t.Errorf("first triggers differ:\n batch      %v\n individual %v", bNexts, iNexts)
	}
	if !reflect.DeepEqual(bPlans, iPlans) {
		t.Errorf("RULE-INFO rows differ:\n batch      %v\n individual %v", bPlans, iPlans)
	}
	if !reflect.DeepEqual(bFired, iFired) {
		t.Errorf("firing sequences differ:\n batch      %v\n individual %v", bFired, iFired)
	}
}

// RecomputeAll after a catalog change pulls triggers earlier when the new
// definition fires sooner, never postpones an armed trigger, and is
// idempotent.
func TestRecomputeAllPullsTriggersEarlier(t *testing.T) {
	eng, cal := newEngine(t)
	ch := cal.Chron()
	ls := caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}
	if err := cal.DefineDerived("PAY", "{[5]/DAYS:during:WEEKS;}", ls, caldb.GranAuto); err != nil {
		t.Fatal(err)
	}
	start := ch.EpochSecondsOf(d(1993, 1, 1)) // Friday
	var hits []int64
	if err := eng.DefineTemporalRule("payday", "PAY", countingAction("pay", &hits), start); err != nil {
		t.Fatal(err)
	}
	wantFri := ch.EpochSecondsOf(d(1993, 1, 8))
	if n, _ := eng.storedNext("payday"); n != wantFri {
		t.Fatalf("armed at %v, want Friday Jan 8", ch.CivilOf(n))
	}
	// Paydays move to Tuesdays: the recompute must pull the armed Friday
	// Jan 8 trigger back to Tuesday Jan 5.
	if err := cal.Drop("PAY"); err != nil {
		t.Fatal(err)
	}
	if err := cal.DefineDerived("PAY", "{[2]/DAYS:during:WEEKS;}", ls, caldb.GranAuto); err != nil {
		t.Fatal(err)
	}
	now := ch.EpochSecondsOf(d(1993, 1, 3))
	changed, err := eng.RecomputeAll(now)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 1 {
		t.Fatalf("RecomputeAll changed %d rows, want 1", changed)
	}
	wantTue := ch.EpochSecondsOf(d(1993, 1, 5))
	if n, _ := eng.storedNext("payday"); n != wantTue {
		t.Fatalf("recomputed trigger %v, want Tuesday Jan 5", ch.CivilOf(n))
	}
	// Idempotent: nothing left to move.
	if changed, err = eng.RecomputeAll(now); err != nil || changed != 0 {
		t.Fatalf("second RecomputeAll = %d,%v, want 0 changes", changed, err)
	}
	// And the full daemon path: the probe after the change fires Tuesday.
	cron, err := NewDBCron(eng, chronology.SecondsPerDay, now)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewVirtualClock(now)
	for i := 0; i < 4; i++ { // through Jan 7
		if _, err := cron.AdvanceTo(clock.Advance(chronology.SecondsPerDay)); err != nil {
			t.Fatal(err)
		}
	}
	if len(hits) != 1 || ch.CivilOf(hits[0]) != d(1993, 1, 5) {
		days := make([]chronology.Civil, len(hits))
		for i, at := range hits {
			days[i] = ch.CivilOf(at)
		}
		t.Fatalf("fired on %v, want exactly [1993-01-05]", days)
	}
}

// The engine's next-trigger answers (caldb.Prepared.NextAfter: a pattern's
// arithmetic where /expand answers from it, else the lookahead window)
// drive exactly the firings the window definition predicts — a
// plan.Scheduler walked from the start — across every expression class,
// among them the last business day of each month less a stored holidays
// calendar and a selection over nested groups.
func TestKernelMatchesWindowedEngine(t *testing.T) {
	const eom = "[n]/(([1,2,3,4,5]/DAYS:during:WEEKS) - holidays):during:MONTHS"
	const nested = "[1]/(DAYS:during:WEEKS):during:MONTHS"
	exprs := []string{
		"DAYS",
		"[2]/DAYS:during:WEEKS",
		"[n]/DAYS:during:MONTHS",
		"[n]/DAYS:during:caloperate(MONTHS, 3)",
		"[1,3,5]/DAYS:during:WEEKS",
		"[3]/WEEKS:overlaps:MONTHS",
		nested,
		eom,
	}
	eng, cal := newEngine(t)
	ch := cal.Chron()
	// Friday 1993-01-29 and Wednesday 1993-03-31 end their months;
	// Monday 1993-02-15 does not.
	hols, err := calendar.FromPoints(chronology.Day, []chronology.Tick{2221, 2238, 2282})
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.DefineStored("holidays", hols, caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}); err != nil {
		t.Fatal(err)
	}
	start := ch.EpochSecondsOf(d(1993, 1, 1))
	const days = 150
	fired := map[string][]int64{}
	for i, src := range exprs {
		nm := fmt.Sprintf("r%d", i)
		if err := eng.DefineTemporalRule(nm, src,
			FuncAction{Name: "count", Fn: func(_ *store.Txn, _ *store.Event, at int64) error {
				fired[nm] = append(fired[nm], at)
				return nil
			}}, start); err != nil {
			t.Fatal(err)
		}
	}
	cron, err := NewDBCron(eng, chronology.SecondsPerDay, start)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewVirtualClock(start)
	for i := 0; i < days; i++ {
		if _, err := cron.AdvanceTo(clock.Advance(chronology.SecondsPerDay)); err != nil {
			t.Fatal(err)
		}
	}
	end := start + days*chronology.SecondsPerDay
	for i, src := range exprs {
		l, err := cal.Prepared("", src).Lowered()
		if err != nil {
			t.Fatal(err)
		}
		ref := plan.NewScheduler(&plan.Env{Chron: ch, Cat: cal, DisableSharing: true}, l.Expr, l.Gran)
		var want []int64
		for at := start; ; {
			next, ok, err := ref.NextAfter(at)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || next > end {
				break
			}
			want, at = append(want, next), next
		}
		if got := fired[fmt.Sprintf("r%d", i)]; len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%q fired on %v, the window definition on %v", src, civils(ch, got), civils(ch, want))
		}
	}
	if got := civils(ch, fired[fmt.Sprintf("r%d", len(exprs)-1)]); !reflect.DeepEqual(got, []chronology.Civil{
		d(1993, 1, 28), d(1993, 2, 26), d(1993, 3, 30), d(1993, 4, 30), d(1993, 5, 31)}) {
		t.Errorf("%q fired on %v", eom, got)
	}
	if got := civils(ch, fired["r6"]); len(got) < 2 || got[0] != d(1993, 1, 4) || got[1] != d(1993, 1, 11) {
		t.Errorf("%q first fired on %v, want 1993-01-04 then 1993-01-11", nested, got)
	}
}

func civils(ch *chronology.Chronology, ats []int64) []chronology.Civil {
	out := make([]chronology.Civil, len(ats))
	for i, at := range ats {
		out[i] = ch.CivilOf(at)
	}
	return out
}
