package rules

// Chaos harness: a virtual daemon is killed at a deterministic, seeded
// fault-injection point — during the probe, inside the firing transaction,
// in the ack window after commit, or on a journal append — then recovered
// (new engine over the same durable store, reattached action, replayed
// journal, catch-up), and driven to the end of its schedule. Invariant
// under FireAll: every due trigger instant executes its action EXACTLY
// once across all incarnations. Under SkipMissed: at most once.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/faultinject"
	"calsys/internal/rules/journal"
	"calsys/internal/store"
)

// chaosSites are the kill points exercised; journal.SiteAppend models a
// crash while writing the journal itself.
var chaosSites = []string{SiteProbe, SiteFire, SiteAck, journal.SiteAppend}

const chaosDays = 8

// chaosRun drives one seeded kill-and-recover scenario over a fleet of daily
// rules, journalling to jpath, and returns the per-firing execution counts, the expected firings,
// how many kills were injected and how many firings recovery deduplicated
// by RULE-TIME. The kill lands on occurrence crashAt of the site, or on a
// seed-chosen one when crashAt is 0.
func chaosRun(t *testing.T, jpath string, seed int64, site string, policy CatchUpPolicy, rules, crashAt int) (counts map[Firing]int, expected []Firing, kills, deduped int) {
	t.Helper()
	db := store.NewDB()
	cal, err := caldb.New(db, chronology.MustNew(chronology.DefaultEpoch))
	if err != nil {
		t.Fatal(err)
	}
	ch := cal.Chron()
	start := ch.EpochSecondsOf(d(1993, 1, 1))
	end := start + chaosDays*chronology.SecondsPerDay
	names := []string{"daily"}
	for len(names) < rules {
		names = append(names, fmt.Sprintf("daily%d", len(names)))
	}
	for _, name := range names {
		for i := int64(1); i <= chaosDays; i++ {
			expected = append(expected, Firing{name, start + i*chronology.SecondsPerDay})
		}
	}
	counts = map[Firing]int{}
	action := func(name string) Action {
		return FuncAction{Name: "count", Fn: func(_ *store.Txn, _ *store.Event, at int64) error {
			counts[Firing{name, at}]++
			return nil
		}}
	}
	inj := faultinject.New(seed)
	rng := rand.New(rand.NewSource(seed))
	// Arm one kill at a seed-chosen occurrence of the site. The first
	// journal append is Open's magic line; skip past it so boot succeeds.
	switch {
	case crashAt > 0:
		inj.CrashAt(site, crashAt)
	case site == journal.SiteAppend:
		inj.CrashAt(site, 2+rng.Intn(18))
	default:
		inj.CrashAt(site, 1+rng.Intn(6))
	}

	var cron *DBCron
	var jnl *journal.Journal
	// kill ends an incarnation the way kill -9 does: what the journal wrote
	// to its file stays, what it still held in its buffer is gone.
	kill := func(j *journal.Journal) {
		kills++
		img, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if err := os.WriteFile(jpath, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	boot := func(now int64, first bool) {
		for {
			eng, err := NewEngine(cal)
			if err != nil {
				t.Fatal(err)
			}
			eng.LookaheadDays = 60
			eng.SetFaults(inj)
			for _, name := range names {
				if first {
					err = eng.DefineTemporalRule(name, "DAYS", action(name), start)
				} else {
					err = eng.ReattachAction(name, action(name))
				}
				if err != nil {
					t.Fatalf("seed %d site %s: attach: %v", seed, site, err)
				}
			}
			j, err := journal.Open(jpath, journal.WithSync(false), journal.WithFaults(inj))
			if err != nil {
				t.Fatalf("seed %d site %s: journal: %v", seed, site, err)
			}
			c, err := NewDBCronWith(eng, chronology.SecondsPerDay, now, CronOptions{
				Journal: j,
				Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: 1, MaxDelay: 2},
				CatchUp: policy,
				Seed:    seed,
				Faults:  inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !first {
				rep, err := c.Recover(now)
				deduped += rep.Deduped
				if err != nil {
					if faultinject.IsCrash(err) {
						// Killed again during recovery: reboot.
						kill(j)
						continue
					}
					t.Fatalf("seed %d site %s: recover: %v", seed, site, err)
				}
			}
			cron, jnl = c, j
			return
		}
	}
	boot(start, true)

	step := int64(chronology.SecondsPerDay / 4)
	for now := start; now <= end; {
		_, err := cron.AdvanceTo(now)
		if err == nil {
			now += step
			continue
		}
		if !faultinject.IsCrash(err) {
			t.Fatalf("seed %d site %s: advance: %v", seed, site, err)
		}
		// Kill -9: abandon the incarnation mid-operation and recover. The
		// store.DB object stands in for the durable store (committed
		// transactions survive); the journal survives on disk.
		kill(jnl)
		boot(now, false)
	}
	jnl.Close()
	return counts, expected, kills, deduped
}

// saveChaosArtifact copies a failing run's journal for CI upload.
func saveChaosArtifact(t *testing.T, jpath string, tag string) {
	dir := os.Getenv("CHAOS_ARTIFACTS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	src, err := os.Open(jpath)
	if err != nil {
		return
	}
	defer src.Close()
	dst, err := os.Create(filepath.Join(dir, tag+".journal"))
	if err != nil {
		return
	}
	defer dst.Close()
	io.Copy(dst, src)
	t.Logf("journal artifact saved for %s", tag)
}

// TestChaosExactlyOnceFireAll kills and recovers the daemon at every chaos
// site across many seeds and proves the FireAll invariant: each due trigger
// instant executes exactly once, none lost, none doubled.
func TestChaosExactlyOnceFireAll(t *testing.T) {
	const seedsPerSite = 13
	for _, site := range chaosSites {
		site := site
		t.Run(site, func(t *testing.T) {
			totalKills := 0
			for seed := int64(1); seed <= seedsPerSite; seed++ {
				jpath := filepath.Join(t.TempDir(), "firing.journal")
				counts, expected, kills, _ := chaosRun(t, jpath, seed, site, FireAll, 1, 0)
				totalKills += kills
				checkExactlyOnce(t, seed, counts, expected)
				if t.Failed() {
					saveChaosArtifact(t, jpath,
						fmt.Sprintf("fireall-%s-seed%d", site, seed))
					return
				}
			}
			// The harness must actually be killing daemons, or the test
			// proves nothing.
			if totalKills == 0 {
				t.Errorf("site %s: no kills injected across %d seeds", site, seedsPerSite)
			}
		})
	}
}

// checkExactlyOnce requires every expected firing to have executed once and
// nothing else to have executed.
func checkExactlyOnce(t *testing.T, seed int64, counts map[Firing]int, expected []Firing) {
	t.Helper()
	for _, f := range expected {
		if counts[f] != 1 {
			t.Errorf("seed %d: %v executed %d times, want exactly 1", seed, f, counts[f])
		}
	}
	for f, n := range counts {
		if !slices.Contains(expected, f) {
			t.Errorf("seed %d: unexpected execution %v (%d times)", seed, f, n)
		}
	}
}

// TestChaosAppendCrashInsideProbe kills the daemon on the second S record of
// a three-rule probe: journal appends are Open's magic line, then the first
// probe's three S records, so the third append is the second of them. The
// probe's records are still in the journal's buffer, so the kill loses them
// all; recovery must find the three firings overdue in RULE-TIME and FireAll
// must still run every instant exactly once.
func TestChaosAppendCrashInsideProbe(t *testing.T) {
	const seed = 1
	counts, expected, kills, _ := chaosRun(t, filepath.Join(t.TempDir(), "firing.journal"), seed, journal.SiteAppend, FireAll, 3, 3)
	if kills != 1 {
		t.Fatalf("%d kills, want the one armed", kills)
	}
	checkExactlyOnce(t, seed, counts, expected)
}

// TestChaosAppendCrashWhileAckBuffered kills the daemon on the B record of
// a day's second firing, while the first firing's A waits in the buffer to
// ride with it: journal appends are Open's magic line, the probe's two S
// records, then the first firing's B and A, so the sixth append is the
// second B. The kill loses the buffered A; recovery must find the first
// firing committed in RULE-TIME and ack it without re-executing, refire the
// second, and FireAll must still run every instant exactly once.
func TestChaosAppendCrashWhileAckBuffered(t *testing.T) {
	const seed = 1
	counts, expected, kills, deduped := chaosRun(t, filepath.Join(t.TempDir(), "firing.journal"), seed, journal.SiteAppend, FireAll, 2, 6)
	if kills != 1 || deduped != 1 {
		t.Fatalf("%d kills and %d firings deduped, want the one kill armed and the firing whose ack it lost", kills, deduped)
	}
	checkExactlyOnce(t, seed, counts, expected)
}

// TestChaosAtMostOnceSkip replays the same kill schedule under SkipMissed:
// instants may be skipped but none may ever execute twice.
func TestChaosAtMostOnceSkip(t *testing.T) {
	const seedsPerSite = 13
	for _, site := range chaosSites {
		site := site
		t.Run(site, func(t *testing.T) {
			totalKills := 0
			for seed := int64(1); seed <= seedsPerSite; seed++ {
				jpath := filepath.Join(t.TempDir(), "firing.journal")
				counts, expected, kills, _ := chaosRun(t, jpath, seed, site, SkipMissed, 1, 0)
				totalKills += kills
				for f, n := range counts {
					if n > 1 {
						t.Errorf("seed %d: %v executed %d times, want at most 1", seed, f, n)
					}
					if !slices.Contains(expected, f) {
						t.Errorf("seed %d: unexpected execution %v", seed, f)
					}
				}
				if t.Failed() {
					saveChaosArtifact(t, jpath,
						fmt.Sprintf("skip-%s-seed%d", site, seed))
					return
				}
			}
			if totalKills == 0 {
				t.Errorf("site %s: no kills injected across %d seeds", site, seedsPerSite)
			}
		})
	}
}

// TestChaosRecoveryAfterLongOutage: the daemon dies and stays down for days;
// FireAll recovery fires every missed instant before resuming, FireLast only
// the latest, SkipMissed none.
func TestChaosRecoveryAfterLongOutage(t *testing.T) {
	cases := []struct {
		policy    CatchUpPolicy
		wantHits  int // executions of missed instants during recovery
		wantAfter int // further daily firings after recovery
	}{
		{FireAll, 5, 2},
		{FireLast, 1, 2},
		{SkipMissed, 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.policy.String(), func(t *testing.T) {
			db := store.NewDB()
			cal, err := caldb.New(db, chronology.MustNew(chronology.DefaultEpoch))
			if err != nil {
				t.Fatal(err)
			}
			start := cal.Chron().EpochSecondsOf(d(1993, 1, 1))
			var hits []int64
			action := countingAction("n", &hits)
			eng, err := NewEngine(cal)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.DefineTemporalRule("daily", "DAYS", action, start); err != nil {
				t.Fatal(err)
			}
			// The daemon never ran; 5 days pass. Boot durable and recover.
			down := start + 5*chronology.SecondsPerDay
			jpath := filepath.Join(t.TempDir(), "j")
			j, err := journal.Open(jpath, journal.WithSync(false))
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			cron, err := NewDBCronWith(eng, chronology.SecondsPerDay, down, CronOptions{
				Journal: j, CatchUp: tc.policy, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := cron.Recover(down)
			if err != nil {
				t.Fatal(err)
			}
			if len(hits) != tc.wantHits {
				t.Errorf("recovery fired %d times (%v), want %d; report %v", len(hits), hits, tc.wantHits, rep)
			}
			hits = hits[:0]
			for nowd := int64(1); nowd <= int64(tc.wantAfter); nowd++ {
				if _, err := cron.AdvanceTo(down + nowd*chronology.SecondsPerDay); err != nil {
					t.Fatal(err)
				}
			}
			if len(hits) != tc.wantAfter {
				t.Errorf("post-recovery fired %d times (%v), want %d", len(hits), hits, tc.wantAfter)
			}
		})
	}
}
