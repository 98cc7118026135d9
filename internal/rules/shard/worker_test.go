package shard

import (
	"errors"
	"fmt"
	"testing"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/faultinject"
	"calsys/internal/rules"
	"calsys/internal/rules/journal"
	"calsys/internal/store"
)

// newTestEngine builds an engine over a fresh in-memory store and returns it
// with the epoch seconds of 1993-01-01.
func newTestEngine(t *testing.T) (*rules.Engine, int64) {
	t.Helper()
	db := store.NewDB()
	cal, err := caldb.New(db, chronology.MustNew(chronology.DefaultEpoch))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rules.NewEngine(cal)
	if err != nil {
		t.Fatal(err)
	}
	eng.LookaheadDays = 60
	start := cal.Chron().EpochSecondsOf(chronology.Civil{Year: 1993, Month: 1, Day: 1})
	return eng, start
}

// defineDailies registers n daily rules ("fleet-0".."fleet-n") whose actions
// count executions per (rule, instant) into counts.
func defineDailies(t *testing.T, eng *rules.Engine, n int, start int64, counts map[string]map[int64]int) {
	t.Helper()
	var defs []rules.TemporalRuleDef
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("fleet-%d", i)
		counts[name] = map[int64]int{}
		m := counts[name]
		defs = append(defs, rules.TemporalRuleDef{
			Name:    name,
			CalExpr: "DAYS",
			Action: rules.FuncAction{Name: name, Fn: func(_ *store.Txn, _ *store.Event, at int64) error {
				m[at]++
				return nil
			}},
		})
	}
	if err := eng.DefineTemporalRules(start, defs); err != nil {
		t.Fatal(err)
	}
}

const day = int64(chronology.SecondsPerDay)

// TestFleetConvergesToFairShares: workers joining one by one rebalance by
// voluntary release/acquire only — a healthy fleet never steals.
func TestFleetConvergesToFairShares(t *testing.T) {
	eng, start := newTestEngine(t)
	coord := NewCoordinator(8, 4*day)
	dir := t.TempDir()
	opts := Options{CatchUp: rules.FireAll}
	w1 := New("w1", coord, eng, day, dir, opts)
	w2 := New("w2", coord, eng, day, dir, opts)
	w3 := New("w3", coord, eng, day, dir, opts)

	if err := w1.Tick(start); err != nil {
		t.Fatal(err)
	}
	if got := len(w1.Owned()); got != 8 {
		t.Fatalf("solo worker owns %d shards, want 8", got)
	}

	// w2 joins: fair share drops to 4; w1 must shed, w2 must pick up.
	now := start + 1
	if err := w2.Tick(now); err != nil { // counts itself live, nothing free yet
		t.Fatal(err)
	}
	if err := w1.Tick(now); err != nil { // sheds down to 4
		t.Fatal(err)
	}
	if err := w2.Tick(now); err != nil { // acquires the freed 4
		t.Fatal(err)
	}
	if a, b := len(w1.Owned()), len(w2.Owned()); a != 4 || b != 4 {
		t.Fatalf("after w2 join: w1=%d w2=%d, want 4/4", a, b)
	}

	// w3 joins: fair share ceil(8/3)=3.
	now++
	if err := w3.Tick(now); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w1.Tick(now); err != nil {
			t.Fatal(err)
		}
		if err := w2.Tick(now); err != nil {
			t.Fatal(err)
		}
		if err := w3.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	total := len(w1.Owned()) + len(w2.Owned()) + len(w3.Owned())
	if total != 8 {
		t.Fatalf("fleet owns %d shards total, want 8", total)
	}
	for _, w := range []*Worker{w1, w2, w3} {
		if n := len(w.Owned()); n > 3 {
			t.Fatalf("%s owns %d shards, want <= fair share 3", w.Name(), n)
		}
	}
	if st := coord.Stats(); st.Steals != 0 {
		t.Fatalf("healthy rebalance stole %d leases, want 0", st.Steals)
	}
}

// TestGracefulShutdownNoStealWindow: SIGTERM drains, compacts, releases and
// departs — the peer re-acquires the freed shards on its very next tick,
// with zero steals and zero lost firings.
func TestGracefulShutdownNoStealWindow(t *testing.T) {
	eng, start := newTestEngine(t)
	counts := map[string]map[int64]int{}
	defineDailies(t, eng, 6, start, counts)
	coord := NewCoordinator(4, 4*day)
	dir := t.TempDir()
	opts := Options{CatchUp: rules.FireAll}
	w1 := New("w1", coord, eng, day, dir, opts)
	w2 := New("w2", coord, eng, day, dir, opts)

	for nowd := int64(0); nowd <= 2; nowd++ {
		if err := w1.Tick(start + nowd*day); err != nil {
			t.Fatal(err)
		}
		if err := w2.Tick(start + nowd*day); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := len(w1.Owned()), len(w2.Owned()); a+b != 4 || a == 0 || b == 0 {
		t.Fatalf("split = %d/%d, want all 4 shards across both", a, b)
	}

	if err := w1.Shutdown(start + 2*day + 1); err != nil {
		t.Fatal(err)
	}
	if n := len(w1.Owned()); n != 0 {
		t.Fatalf("w1 owns %d shards after Shutdown, want 0", n)
	}
	// The very next w2 tick — one second later, far inside the TTL — takes
	// everything over: graceful exits never wait out a steal window.
	if err := w2.Tick(start + 2*day + 2); err != nil {
		t.Fatal(err)
	}
	if n := len(w2.Owned()); n != 4 {
		t.Fatalf("w2 owns %d shards after peer shutdown, want 4", n)
	}
	if st := coord.Stats(); st.Steals != 0 {
		t.Fatalf("graceful handoff stole %d leases, want 0", st.Steals)
	}

	// Finish the week on w2 alone; every instant fires exactly once.
	for nowd := int64(3); nowd <= 6; nowd++ {
		if err := w2.Tick(start + nowd*day); err != nil {
			t.Fatal(err)
		}
	}
	for name, m := range counts {
		for i := int64(1); i <= 6; i++ {
			if m[start+i*day] != 1 {
				t.Errorf("%s at day %d fired %d times, want 1", name, i, m[start+i*day])
			}
		}
	}
}

// TestZombieFencedEndToEnd: a worker that stops heartbeating keeps its cron
// state; after a peer steals and catches up, the zombie's next firing
// attempt is fenced inside the transaction — the action never runs, the
// RULE-TIME row is untouched, and every instant still fires exactly once.
func TestZombieFencedEndToEnd(t *testing.T) {
	eng, start := newTestEngine(t)
	counts := map[string]map[int64]int{}
	defineDailies(t, eng, 4, start, counts)
	coord := NewCoordinator(1, 2*day)
	dir := t.TempDir()
	opts := Options{CatchUp: rules.FireAll}
	w1 := New("w1", coord, eng, day, dir, opts)

	if err := w1.Tick(start); err != nil {
		t.Fatal(err)
	}
	if err := w1.Tick(start + day); err != nil { // fires day 1, renews
		t.Fatal(err)
	}
	for name, m := range counts {
		if m[start+day] != 1 {
			t.Fatalf("%s day 1 fired %d times before zombie phase", name, m[start+day])
		}
	}

	// w1 goes silent; its lease expires at day 3. w2 steals at day 3 and
	// catches up days 2 and 3 under FireAll.
	w2 := New("w2", coord, eng, day, dir, opts)
	if err := w2.Tick(start + 3*day); err != nil {
		t.Fatal(err)
	}
	if n := len(w2.Owned()); n != 1 {
		t.Fatalf("w2 owns %d shards after steal, want 1", n)
	}
	if st := coord.Stats(); st.Steals != 1 {
		t.Fatalf("Steals = %d, want 1", st.Steals)
	}

	// The zombie wakes and tries to catch up days 2..3 itself. The fence
	// must abort its firing transactions before any effect.
	if err := w1.Tick(start + 3*day + 10); err != nil {
		t.Fatal(err)
	}
	if st := w1.Stats(); st.Fenced != 1 || st.Owned != 0 {
		t.Fatalf("zombie stats = %+v, want Fenced=1 Owned=0", st)
	}
	for name, m := range counts {
		for i := int64(1); i <= 3; i++ {
			if m[start+i*day] != 1 {
				t.Errorf("%s day %d fired %d times, want exactly 1", name, i, m[start+i*day])
			}
		}
	}
}

// TestCompactRacingHandoff: a dead owner's journal handle survives into the
// successor's tenure and Compacts after the handoff already merged and
// deleted the file — resurrecting a stale-epoch journal on disk. The next
// handoff must re-merge it and deduplicate by RULE-TIME, never double-firing.
func TestCompactRacingHandoff(t *testing.T) {
	eng, start := newTestEngine(t)
	counts := map[string]map[int64]int{}
	defineDailies(t, eng, 4, start, counts)
	coord := NewCoordinator(1, 2*day)
	dir := t.TempDir()

	// First owner: drive a raw per-shard daemon under lease epoch 1 so the
	// test keeps its journal handle (the "zombie fd") after the kill.
	l1, err := coord.Acquire("w1", start, 1)
	if err != nil || len(l1) != 1 {
		t.Fatalf("Acquire = %v, %v", l1, err)
	}
	j1path := journal.ShardFile(dir, 0, l1[0].Epoch)
	j1, err := journal.Open(j1path, journal.WithSync(false))
	if err != nil {
		t.Fatal(err)
	}
	sh, ep := l1[0].Shard, l1[0].Epoch
	cron1, err := rules.NewDBCronWith(eng, day, start, rules.CronOptions{
		Journal: j1,
		CatchUp: rules.FireAll,
		Shard:   sh,
		Shards:  coord.Shards(),
		Fence:   func(at int64) error { return coord.Validate(sh, ep, at) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cron1.AdvanceTo(start + day); err != nil { // fires day 1
		t.Fatal(err)
	}
	cron1.Close() // killed: journal handle j1 stays open, lease left to expire

	// Second owner steals at day 3, merges + deletes the epoch-1 file, and
	// catches up days 2..3.
	opts := Options{CatchUp: rules.FireAll}
	w2 := New("w2", coord, eng, day, dir, opts)
	if err := w2.Tick(start + 3*day); err != nil {
		t.Fatal(err)
	}
	if st := coord.Stats(); st.Steals != 1 {
		t.Fatalf("Steals = %d, want 1", st.Steals)
	}

	// The zombie's Compact now lands AFTER the handoff: tmp+rename brings
	// the stale epoch-1 file back from the dead.
	if err := j1.Compact(); err != nil {
		t.Fatal(err)
	}
	j1.Close()
	if _, err := journal.ReplayFile(j1path); err != nil {
		t.Fatalf("resurrected journal unreadable: %v", err)
	}

	// w2 exits gracefully; the third owner merges BOTH files — the live
	// epoch-2 state and the resurrected stale one — and must come out with
	// day 1 already acked, not refire it.
	if err := w2.Tick(start + 4*day); err != nil {
		t.Fatal(err)
	}
	if err := w2.Shutdown(start + 4*day + 1); err != nil {
		t.Fatal(err)
	}
	w3 := New("w3", coord, eng, day, dir, opts)
	if err := w3.Tick(start + 5*day); err != nil {
		t.Fatal(err)
	}
	if n := len(w3.Owned()); n != 1 {
		t.Fatalf("w3 owns %d shards, want 1", n)
	}
	for name, m := range counts {
		for i := int64(1); i <= 5; i++ {
			if m[start+i*day] != 1 {
				t.Errorf("%s day %d fired %d times, want exactly 1", name, i, m[start+i*day])
			}
		}
	}
}

// TestShardPartitionCoverage: with multiple shards, every rule lands in
// exactly one shard's daemon — union of fired instants is complete, no rule
// fires under two shards.
func TestShardPartitionCoverage(t *testing.T) {
	eng, start := newTestEngine(t)
	counts := map[string]map[int64]int{}
	defineDailies(t, eng, 16, start, counts)
	coord := NewCoordinator(4, 10*day)
	dir := t.TempDir()
	w := New("w", coord, eng, day, dir, Options{CatchUp: rules.FireAll})
	for i := int64(0); i <= 3; i++ {
		if err := w.Tick(start + i*day); err != nil {
			t.Fatal(err)
		}
	}
	for name, m := range counts {
		for i := int64(1); i <= 3; i++ {
			if m[start+i*day] != 1 {
				t.Errorf("%s day %d fired %d times, want exactly 1", name, i, m[start+i*day])
			}
		}
	}
	// The 16 rules must actually spread across shards (FNV over these names
	// hits more than one of 4 buckets).
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		seen[rules.ShardOf(fmt.Sprintf("fleet-%d", i), 4)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all 16 rules hashed to %d shard(s); partition degenerate", len(seen))
	}
}

// TestWorkerFiredStatSurvivesHandoff: Fired counts accumulate across
// release/drop so fleet accounting stays truthful.
func TestWorkerFiredStatSurvivesHandoff(t *testing.T) {
	eng, start := newTestEngine(t)
	counts := map[string]map[int64]int{}
	defineDailies(t, eng, 2, start, counts)
	coord := NewCoordinator(1, 10*day)
	w := New("w", coord, eng, day, t.TempDir(), Options{CatchUp: rules.FireAll})
	if err := w.Tick(start); err != nil {
		t.Fatal(err)
	}
	if err := w.Tick(start + 2*day); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Fired != 4 { // 2 rules × days 1,2
		t.Fatalf("Fired = %d, want 4", st.Fired)
	}
	if err := w.Shutdown(start + 2*day + 1); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Fired != 4 || st.Released != 1 {
		t.Fatalf("post-shutdown stats = %+v, want Fired=4 Released=1", st)
	}
}

// TestFailedAdoptionIsRetried: one non-crash fault at the handoff site fails
// the first adoption of a round. The lease stays granted and renewed, so the
// next Tick must adopt it (and the round's other grants) instead of leaving
// the shards held but undriven for the life of the worker.
func TestFailedAdoptionIsRetried(t *testing.T) {
	eng, start := newTestEngine(t)
	counts := map[string]map[int64]int{}
	defineDailies(t, eng, 4, start, counts)
	coord := NewCoordinator(2, 2*day)
	inj := faultinject.New(1)
	inj.FailAt(SiteHandoff, 1)
	w := New("w", coord, eng, day, t.TempDir(), Options{CatchUp: rules.FireAll, Faults: inj})
	var errs []error
	for i := int64(0); i <= 10; i++ {
		if err := w.Tick(start + i*day); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) != 1 || !errors.Is(errs[0], faultinject.ErrInjected) {
		t.Fatalf("Tick errors = %v, want the one injected handoff fault", errs)
	}
	if n := len(w.Owned()); n != 2 {
		t.Errorf("worker drives %d shards, want 2", n)
	}
	fired := 0
	for name, m := range counts {
		for i := int64(1); i <= 10; i++ {
			if m[start+i*day] > 1 {
				t.Errorf("%s day %d fired %d times, want exactly 1", name, i, m[start+i*day])
			}
			fired += m[start+i*day]
		}
	}
	if fired != 40 {
		t.Errorf("%d of 40 instants fired, want all 40 exactly once", fired)
	}
}
