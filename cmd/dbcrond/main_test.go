package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestRunSimulation(t *testing.T) {
	if _, err := run(config{days: 35, T: 86400, start: "1993-01-01", quiet: true, policy: "fireall",
		checkpointDays: 7, workers: 1, shards: 8, leaseTTL: 86400 * 3 / 2}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	base := config{days: 5, T: 86400, start: "1993-01-01", quiet: true, policy: "fireall",
		workers: 1, shards: 8, leaseTTL: 86400 * 3 / 2}
	bad := base
	bad.start = "not a date"
	if _, err := run(bad); err == nil {
		t.Error("bad start date should fail")
	}
	bad = base
	bad.T = 0
	if _, err := run(bad); err == nil {
		t.Error("zero probe period should fail")
	}
	bad = base
	bad.policy = "yolo"
	if _, err := run(bad); err == nil {
		t.Error("bad policy should fail")
	}
	bad = base
	bad.doRecover = true
	if _, err := run(bad); err == nil {
		t.Error("-recover without -journal-dir/-snapshot should fail")
	}
	bad = base
	bad.crashAfter = 3
	if _, err := run(bad); err == nil {
		t.Error("-crash-after without -journal-dir should fail")
	}
}

// The demo's full durability loop: run with journals and checkpoints, crash
// mid-simulation, and recover from what survived on disk — the recovery
// run's first Tick adopts the dead process's journals and resolves the
// firing whose ack the crash lost.
func TestRunCrashAndRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		days: 40, T: 86400, start: "1993-01-01", quiet: true,
		policy:         "fireall",
		journalDir:     filepath.Join(dir, "journals"),
		snapshotPath:   filepath.Join(dir, "state.db"),
		checkpointDays: 7,
		crashAfter:     12,
		workers:        1,
		shards:         8,
		leaseTTL:       86400 * 3 / 2,
	}
	if _, err := run(cfg); !errors.Is(err, errCrashed) {
		t.Fatalf("err = %v, want simulated crash", err)
	}
	left, err := filepath.Glob(filepath.Join(cfg.journalDir, "*.journal"))
	if err != nil || len(left) == 0 {
		t.Fatalf("crash left no journals behind (%v)", err)
	}
	if _, err := os.Stat(cfg.snapshotPath); err != nil {
		t.Fatalf("crash did not leave the checkpoint behind: %v", err)
	}
	rec := cfg
	rec.crashAfter = 0
	rec.doRecover = true
	workers, err := run(rec)
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	if rep := workers[0].Stats().Recovered; rep.ReplayedPending < 1 {
		t.Fatalf("recovery report = %s, want the crashed firing replayed", rep)
	}
}

// The scale demo on the default single worker: the -rules mix and its
// sentinels, verified exactly-once.
func TestRunRulesOneWorker(t *testing.T) {
	cfg := config{
		days: 10, T: 86400, start: "1993-01-01", quiet: true,
		policy:   "fireall",
		rules:    300,
		distinct: 50,
		workers:  1,
		shards:   8,
		leaseTTL: 86400 * 3 / 2,
	}
	if _, err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

// The sharded-fleet demo end to end: 3 workers split 8 shards, one is
// SIGKILLed mid-run, the survivors steal its leases and catch up, and the
// run's own exactly-once verification (sentinel instants, steal traffic)
// must come back clean.
func TestRunFleetShardedKillSteal(t *testing.T) {
	cfg := config{
		days: 20, T: 86400, start: "1993-01-01", quiet: true,
		policy:     "fireall",
		rules:      300,
		distinct:   20,
		workers:    3,
		shards:     8,
		leaseTTL:   86400 * 3 / 2,
		killAfter:  5,
		journalDir: t.TempDir(),
	}
	if _, err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

// A fleet with no kill rebalances by voluntary release only and still
// passes verification.
func TestRunFleetShardedClean(t *testing.T) {
	cfg := config{
		days: 10, T: 86400, start: "1993-01-01", quiet: true,
		policy:     "fireall",
		rules:      100,
		distinct:   10,
		workers:    2,
		shards:     4,
		leaseTTL:   86400 * 3 / 2,
		journalDir: t.TempDir(),
	}
	if _, err := run(cfg); err != nil {
		t.Fatal(err)
	}
}
