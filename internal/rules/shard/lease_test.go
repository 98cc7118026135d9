package shard

import (
	"errors"
	"testing"

	"calsys/internal/rules"
)

// TestLeaseTTLBoundary pins the expiry arithmetic exactly at the heartbeat
// boundary: a lease granted at 0 with ttl=100 is valid through 99 and dead
// at 100 — renewing or validating AT the expiry instant is too late.
func TestLeaseTTLBoundary(t *testing.T) {
	c := NewCoordinator(1, 100)
	got, err := c.Acquire("w1", 0, 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("Acquire = %v, %v; want one lease", got, err)
	}
	if got[0].ExpiresAt != 100 {
		t.Fatalf("ExpiresAt = %d, want 100", got[0].ExpiresAt)
	}

	// One second before expiry: renewal succeeds and extends to now+ttl.
	kept, lost, err := c.Renew("w1", 99)
	if err != nil || len(kept) != 1 || len(lost) != 0 {
		t.Fatalf("Renew at 99 = kept %v lost %v err %v; want kept", kept, lost, err)
	}
	if kept[0].ExpiresAt != 199 {
		t.Fatalf("renewed ExpiresAt = %d, want 199", kept[0].ExpiresAt)
	}

	// Validate one second before the new expiry: still the owner.
	if err := c.Validate(0, kept[0].Epoch, 198); err != nil {
		t.Fatalf("Validate at 198: %v, want ok", err)
	}
	// Validate exactly at expiry: fenced, even though nobody stole yet.
	if err := c.Validate(0, kept[0].Epoch, 199); !errors.Is(err, rules.ErrFenced) {
		t.Fatalf("Validate at 199 = %v, want ErrFenced", err)
	}

	// Renew exactly at expiry: the lease is lost, not revived.
	kept, lost, err = c.Renew("w1", 199)
	if err != nil || len(kept) != 0 || len(lost) != 1 || lost[0] != 0 {
		t.Fatalf("Renew at 199 = kept %v lost %v err %v; want lost=[0]", kept, lost, err)
	}

	// A peer acquiring at the same instant steals it under a fresh epoch.
	stolen, err := c.Acquire("w2", 199, 1)
	if err != nil || len(stolen) != 1 {
		t.Fatalf("steal Acquire = %v, %v", stolen, err)
	}
	if stolen[0].Epoch <= kept0Epoch(got) {
		t.Fatalf("steal epoch %d not past original %d", stolen[0].Epoch, got[0].Epoch)
	}
	if st := c.Stats(); st.Steals != 1 {
		t.Fatalf("Steals = %d, want 1", st.Steals)
	}
	// The original epoch stays fenced forever.
	if err := c.Validate(0, got[0].Epoch, 200); !errors.Is(err, rules.ErrFenced) {
		t.Fatalf("old-epoch Validate = %v, want ErrFenced", err)
	}
	if err := c.Validate(0, stolen[0].Epoch, 200); err != nil {
		t.Fatalf("new-epoch Validate = %v, want ok", err)
	}
}

func kept0Epoch(ls []Lease) uint64 { return ls[0].Epoch }

// TestLeaseReleaseFencing: only the (worker, epoch) pair of the current
// grant may release; a zombie's stale epoch gets ErrNotOwner.
func TestLeaseReleaseFencing(t *testing.T) {
	c := NewCoordinator(1, 100)
	l1, _ := c.Acquire("w1", 0, 1)
	// Lease expires, w2 steals.
	l2, _ := c.Acquire("w2", 100, 1)
	if len(l2) != 1 {
		t.Fatalf("steal failed: %v", l2)
	}
	if err := c.Release("w1", 0, l1[0].Epoch); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("zombie Release = %v, want ErrNotOwner", err)
	}
	if err := c.Release("w2", 0, l1[0].Epoch); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("stale-epoch Release = %v, want ErrNotOwner", err)
	}
	if err := c.Release("w2", 0, l2[0].Epoch); err != nil {
		t.Fatalf("owner Release = %v, want ok", err)
	}
	if c.leases[0].Owner != "" {
		t.Fatal("shard still owned after release")
	}
	if err := c.Release("w2", 5, l2[0].Epoch); err == nil {
		t.Fatal("Release of out-of-range shard succeeded")
	}
}

// TestFairShareMath: quota is ceil(shards/live) over workers whose liveness
// deadline has not passed; a fleet with zero live workers divides by one.
func TestFairShareMath(t *testing.T) {
	c := NewCoordinator(10, 100)
	if fs := c.FairShare(0); fs != 10 {
		t.Fatalf("FairShare with no workers = %d, want 10", fs)
	}
	// A worker with no shards still counts: renewing is its heartbeat.
	for _, w := range []string{"a", "b", "c"} {
		if _, _, err := c.Renew(w, 0); err != nil {
			t.Fatal(err)
		}
	}
	if fs := c.FairShare(50); fs != 4 { // ceil(10/3)
		t.Fatalf("FairShare(3 live) = %d, want 4", fs)
	}
	// Liveness lapses at exactly now == deadline (now < deadline is live):
	// a and d beat at 1, so at 100 only b and c have lapsed.
	c.Renew("a", 1)
	c.Renew("d", 1)
	for now, want := range map[int64]int{99: 3, 100: 5, 101: 10} {
		if fs := c.FairShare(now); fs != want {
			t.Fatalf("FairShare(%d) = %d, want %d", now, fs, want)
		}
	}
}

// TestAcquireScanOrder: grants scan shards from 0, skip valid leases, and
// respect max.
func TestAcquireScanOrder(t *testing.T) {
	c := NewCoordinator(4, 100)
	a, _ := c.Acquire("w1", 0, 2)
	if len(a) != 2 || a[0].Shard != 0 || a[1].Shard != 1 {
		t.Fatalf("Acquire = %v, want shards 0,1", a)
	}
	b, _ := c.Acquire("w2", 10, 10)
	if len(b) != 2 || b[0].Shard != 2 || b[1].Shard != 3 {
		t.Fatalf("second Acquire = %v, want shards 2,3", b)
	}
	none, _ := c.Acquire("w3", 20, 10)
	if len(none) != 0 {
		t.Fatalf("third Acquire = %v, want none (all leased)", none)
	}
	if st := c.Stats(); st.Grants != 4 || st.Steals != 0 {
		t.Fatalf("stats = %+v, want 4 grants 0 steals", st)
	}
}
