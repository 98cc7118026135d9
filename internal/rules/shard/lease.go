package shard

import (
	"errors"
	"fmt"
	"sync"

	"calsys/internal/faultinject"
	"calsys/internal/rules"
)

// ErrNotOwner is returned by Release when the caller's (worker, epoch) no
// longer matches the lease — it expired and was re-granted. The caller must
// treat the shard as lost, not owned.
var ErrNotOwner = errors.New("shard: lease not owned under this epoch")

// Lease is one shard's ownership record. Epoch is the fencing token: it
// increments on every grant (acquire, re-acquire or steal), so an old
// epoch's holder can always be told apart from the current owner no matter
// how the clock or the grants interleave.
type Lease struct {
	Shard     int
	Owner     string // "" = free
	Epoch     uint64
	ExpiresAt int64 // valid while now < ExpiresAt
}

// CoordStats counts coordinator-side lease traffic.
type CoordStats struct {
	Grants   int64 // leases granted (fresh or steal)
	Steals   int64 // grants that took an expired lease from another owner
	Renewals int64 // successful per-lease heartbeat extensions
	Releases int64 // voluntary releases
}

// Coordinator is the lease table of a sharded fleet: an in-memory stand-in
// for the coordination service (etcd, a SQL row set, ...) a deployed fleet
// would use, with the exact semantics the workers rely on — TTL expiry,
// heartbeat renewal, steal-on-expiry, epoch fencing. All methods take the
// caller's clock so virtual-time tests drive every edge deterministically.
type Coordinator struct {
	mu     sync.Mutex
	ttl    int64
	leases []Lease
	epoch  uint64
	// beat maps each worker to its liveness deadline; fair-share rebalance
	// divides shards among workers whose deadline has not passed.
	beat   map[string]int64
	faults *faultinject.Injector
	stats  CoordStats
}

// NewCoordinator creates the lease table for `shards` shards with leases
// valid for ttl seconds after each grant or renewal.
func NewCoordinator(shards int, ttl int64) *Coordinator {
	if shards <= 0 {
		shards = 1
	}
	if ttl <= 0 {
		ttl = 60
	}
	c := &Coordinator{ttl: ttl, leases: make([]Lease, shards), beat: map[string]int64{}}
	for i := range c.leases {
		c.leases[i].Shard = i
	}
	return c
}

// SetFaults threads a fault injector through the lease sites.
func (c *Coordinator) SetFaults(in *faultinject.Injector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faults = in
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.leases) }

// Depart removes a worker from the liveness set (graceful exit, after its
// leases are released) so fair shares redistribute to the survivors
// immediately instead of after a TTL lapse.
func (c *Coordinator) Depart(worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.beat, worker)
}

// liveLocked counts workers whose liveness deadline has not passed.
func (c *Coordinator) liveLocked(now int64) int {
	n := 0
	for _, dl := range c.beat {
		if now < dl {
			n++
		}
	}
	return n
}

// FairShare is the per-worker shard quota: ceil(shards / live workers).
// Workers release down to it when peers join and acquire up to it when
// shards are free or expired.
func (c *Coordinator) FairShare(now int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := c.liveLocked(now)
	if live < 1 {
		live = 1
	}
	return (len(c.leases) + live - 1) / live
}

// Acquire grants the worker up to max free or expired shards, renewing its
// liveness. Taking an expired lease from another owner is a steal and bumps
// the steal counter; every grant bumps the epoch — the fencing token.
func (c *Coordinator) Acquire(worker string, now int64, max int) ([]Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beat[worker] = now + c.ttl
	var out []Lease
	for i := range c.leases {
		if len(out) >= max {
			break
		}
		l := &c.leases[i]
		free := l.Owner == ""
		expired := !free && now >= l.ExpiresAt
		if !free && !expired {
			continue
		}
		// Crash-before-effect: a worker killed at the site dies without
		// the grant, so the shard stays takeable by the survivors.
		site := SiteAcquire
		if expired && l.Owner != worker {
			site = SiteSteal
		}
		if err := faultinject.Hit(c.faults, site); err != nil {
			return out, err
		}
		if site == SiteSteal {
			c.stats.Steals++
		}
		c.epoch++
		l.Owner = worker
		l.Epoch = c.epoch
		l.ExpiresAt = now + c.ttl
		c.stats.Grants++
		out = append(out, *l)
	}
	return out, nil
}

// Renew extends every still-valid lease of the worker by TTL and renews its
// liveness. Leases that already expired cannot be renewed — they are
// returned in lost and stay in the steal window (re-acquiring one mints a
// new epoch, so the old fencing token stays dead).
func (c *Coordinator) Renew(worker string, now int64) (kept []Lease, lost []int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := faultinject.Hit(c.faults, SiteRenew); err != nil {
		return nil, nil, err
	}
	c.beat[worker] = now + c.ttl
	for i := range c.leases {
		l := &c.leases[i]
		if l.Owner != worker {
			continue
		}
		if now >= l.ExpiresAt {
			lost = append(lost, l.Shard)
			continue
		}
		l.ExpiresAt = now + c.ttl
		c.stats.Renewals++
		kept = append(kept, *l)
	}
	return kept, lost, nil
}

// Release voluntarily frees a shard. The (worker, epoch) pair must match
// the current grant: a zombie cannot release the successor's lease.
func (c *Coordinator) Release(worker string, sh int, epoch uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh < 0 || sh >= len(c.leases) {
		return fmt.Errorf("shard: no shard %d", sh)
	}
	if err := faultinject.Hit(c.faults, SiteRelease); err != nil {
		return err
	}
	l := &c.leases[sh]
	if l.Owner != worker || l.Epoch != epoch {
		return fmt.Errorf("shard %d: %w", sh, ErrNotOwner)
	}
	l.Owner = ""
	l.ExpiresAt = 0
	c.stats.Releases++
	return nil
}

// Validate is the fencing check run inside every firing transaction: the
// epoch must be the shard's current grant and the lease unexpired.
// Expiry counts as fenced even before anyone steals — a worker that cannot
// prove ownership at commit time must not commit.
func (c *Coordinator) Validate(sh int, epoch uint64, now int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh < 0 || sh >= len(c.leases) {
		return fmt.Errorf("shard: no shard %d", sh)
	}
	l := c.leases[sh]
	if l.Owner == "" || l.Epoch != epoch || now >= l.ExpiresAt {
		return fmt.Errorf("shard %d epoch %d: %w", sh, epoch, rules.ErrFenced)
	}
	return nil
}

// Stats returns the coordinator's lease-traffic counters.
func (c *Coordinator) Stats() CoordStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
