package shard

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"calsys/internal/faultinject"
	"calsys/internal/rules"
	"calsys/internal/rules/journal"
)

// Options configures a Worker's per-shard daemons.
type Options struct {
	// Retry/CatchUp/ActionTimeout/Seed are the per-shard CronOptions
	// template (see rules.CronOptions).
	Retry         rules.RetryPolicy
	CatchUp       rules.CatchUpPolicy
	ActionTimeout time.Duration
	Seed          int64
	// Faults threads the chaos injector through handoff and the per-shard
	// daemons/journals (the coordinator carries its own via SetFaults).
	Faults *faultinject.Injector
	// SyncJournals enables fsync-on-commit on the per-shard journals
	// (production on, virtual-time tests off for speed).
	SyncJournals bool
}

// WorkerStats is a worker's lifetime counter snapshot.
type WorkerStats struct {
	Owned    int   // shards currently owned
	Adopted  int64 // shards adopted (initial grant, rebalance or steal)
	Released int64 // shards released voluntarily (rebalance/shutdown)
	Lost     int64 // leases that expired or were rejected under us
	Fenced   int64 // shards dropped after a fenced firing attempt
	Fired    int64 // firings committed across all epochs owned
	// Recovered sums what Recover did on every adoption: a handoff, a steal,
	// or the first grant after a restart over a dead process's journals.
	Recovered rules.RecoveryReport
}

// ownedShard is one shard a worker holds: its lease, its per-epoch journal
// and the per-shard daemon probing only that shard's rules.
type ownedShard struct {
	lease Lease
	cron  *rules.DBCron
	jnl   *journal.Journal
}

// Worker is one dbcrond process of a sharded fleet. It heartbeats the
// Coordinator, acquires shards up to its fair share (stealing expired
// leases of crashed peers), releases down to it when peers join, and drives
// one DBCron per owned shard. Tick is the driver: the caller (dbcrond, the
// virtual-time tests, calbench) decides when a round happens and what a
// crash error means. Nothing here reads a wall clock; a real-time
// deployment calls Tick from its own ticker.
type Worker struct {
	name  string
	coord *Coordinator
	eng   *rules.Engine
	T     int64
	dir   string
	opts  Options

	mu    sync.Mutex
	owned map[int]*ownedShard
	stats WorkerStats
}

// New creates a worker named `name` over the shared engine. Per-shard
// journals are created under dir; T is the probe period in seconds.
func New(name string, coord *Coordinator, eng *rules.Engine, T int64, dir string, opts Options) *Worker {
	if opts.Retry.MaxAttempts <= 0 {
		opts.Retry = rules.DefaultRetryPolicy
	}
	return &Worker{name: name, coord: coord, eng: eng, T: T, dir: dir, opts: opts, owned: map[int]*ownedShard{}}
}

// Name returns the worker's fleet-unique name.
func (w *Worker) Name() string { return w.name }

// Tick is one scheduling round at `now`: renew leases (dropping any lost to
// expiry), rebalance down to the fair share, acquire free or expired shards
// up to it, adopt every lease held but not yet driven (the fresh grants, and
// any a failed adoption left behind — so a failure is retried next round),
// then advance every owned daemon to now. A returned injected-crash error
// means the worker died at a chaos site; the harness must abandon it without
// cleanup, exactly like a SIGKILL.
func (w *Worker) Tick(now int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()

	kept, lost, err := w.coord.Renew(w.name, now)
	if err != nil {
		return err
	}
	var adopt []Lease
	for _, l := range kept {
		if os, ok := w.owned[l.Shard]; ok {
			os.lease = l
		} else {
			adopt = append(adopt, l)
		}
	}
	for _, sh := range lost {
		w.dropLocked(sh)
		w.stats.Lost++
	}

	fair := w.coord.FairShare(now)
	for len(w.owned) > fair {
		// Shed the highest shard id: deterministic, and symmetric with
		// Acquire scanning from 0.
		sh := -1
		for id := range w.owned {
			if id > sh {
				sh = id
			}
		}
		if err := w.releaseLocked(sh, now); err != nil {
			return err
		}
	}

	var aerr error
	if n := fair - len(w.owned) - len(adopt); n > 0 {
		var leases []Lease
		leases, aerr = w.coord.Acquire(w.name, now, n)
		adopt = append(adopt, leases...)
	}
	for _, l := range adopt {
		if err := w.adoptLocked(l, now); err != nil {
			return err
		}
	}
	if aerr != nil {
		return aerr
	}

	for _, sh := range w.ownedIDsLocked() {
		os, ok := w.owned[sh]
		if !ok {
			continue
		}
		if _, err := os.cron.AdvanceTo(now); err != nil {
			if errors.Is(err, rules.ErrFenced) {
				// We are a zombie for this shard: the fence already
				// blocked the commit; drop our state and move on.
				w.stats.Fenced++
				w.dropLocked(sh)
				continue
			}
			return err
		}
	}
	return nil
}

// adoptLocked takes ownership of a freshly granted shard. A handoff is a
// restart: merge every journal file prior epochs left behind, create this
// epoch's journal from the merged state, recover it the way a crashed
// daemon recovers its own (re-firing or deduplicating the dead owner's
// in-flight work per the catch-up policy), then delete the superseded
// files. Idempotent under crashes at any point: the new file appears whole
// (temp file and rename), and the old ones are only deleted after it holds
// everything they proved.
func (w *Worker) adoptLocked(l Lease, now int64) error {
	if err := faultinject.Hit(w.opts.Faults, SiteHandoff); err != nil {
		return err
	}
	newPath := journal.ShardFile(w.dir, l.Shard, l.Epoch)
	old, err := journal.ShardFiles(w.dir, l.Shard)
	if err != nil {
		return err
	}
	states := make([]*journal.State, len(old))
	for i, p := range old {
		if states[i], err = journal.ReplayFile(p); err != nil {
			return err
		}
	}
	jnl, err := journal.Create(newPath, journal.MergeStates(states...),
		journal.WithSync(w.opts.SyncJournals), journal.WithFaults(w.opts.Faults))
	if err != nil {
		return err
	}
	sh, epoch := l.Shard, l.Epoch
	cron, err := rules.NewDBCronWith(w.eng, w.T, now, rules.CronOptions{
		Journal:       jnl,
		Retry:         w.opts.Retry,
		CatchUp:       w.opts.CatchUp,
		ActionTimeout: w.opts.ActionTimeout,
		Seed:          w.opts.Seed + int64(epoch),
		Faults:        w.opts.Faults,
		Shard:         sh,
		Shards:        w.coord.Shards(),
		Fence:         func(at int64) error { return w.coord.Validate(sh, epoch, at) },
	})
	if err != nil {
		jnl.Close()
		return err
	}
	rep, err := cron.Recover(now)
	if err != nil {
		// The handles go either way: a failed adoption is retried next Tick
		// with fresh ones.
		cron.Close()
		jnl.Close()
		if errors.Is(err, rules.ErrFenced) {
			// Lease lost while adopting (e.g. the clock jumped past the
			// TTL mid-recovery): walk away, the next owner re-merges.
			w.stats.Fenced++
			return nil
		}
		return err
	}
	for _, p := range old {
		if p != newPath {
			os.Remove(p)
		}
	}
	w.owned[sh] = &ownedShard{lease: l, cron: cron, jnl: jnl}
	w.stats.Adopted++
	r := &w.stats.Recovered
	r.ReplayedPending += rep.ReplayedPending
	r.Refired += rep.Refired
	r.Deduped += rep.Deduped
	r.CaughtUp += rep.CaughtUp
	r.Skipped += rep.Skipped
	r.Orphaned += rep.Orphaned
	return nil
}

// releaseLocked gracefully hands a shard back: drain due work, compact the
// journal so the next owner merges a minimal file, release the lease, close.
// No steal window opens — the lease is immediately free.
func (w *Worker) releaseLocked(sh int, now int64) error {
	os, ok := w.owned[sh]
	if !ok {
		return fmt.Errorf("shard: worker %s does not own shard %d", w.name, sh)
	}
	if _, err := os.cron.AdvanceTo(now); err != nil {
		if errors.Is(err, rules.ErrFenced) {
			w.stats.Fenced++
			w.dropLocked(sh)
			return nil
		}
		return err
	}
	if err := os.jnl.Compact(); err != nil {
		return err
	}
	if err := w.coord.Release(w.name, sh, os.lease.Epoch); err != nil {
		if errors.Is(err, ErrNotOwner) {
			w.stats.Lost++
			w.dropLocked(sh)
			return nil
		}
		return err
	}
	w.stats.Released++
	w.stats.Fired += os.cron.Stats().Fired
	os.cron.Close()
	os.jnl.Close()
	delete(w.owned, sh)
	return nil
}

// dropLocked abandons a shard without touching the lease (expired under us,
// or fenced): close our handles, keep the journal file for the next owner.
func (w *Worker) dropLocked(sh int) {
	os, ok := w.owned[sh]
	if !ok {
		return
	}
	w.stats.Fired += os.cron.Stats().Fired
	os.cron.Close()
	os.jnl.Close()
	delete(w.owned, sh)
}

func (w *Worker) ownedIDsLocked() []int {
	ids := make([]int, 0, len(w.owned))
	for sh := range w.owned {
		ids = append(ids, sh)
	}
	sort.Ints(ids)
	return ids
}

// Owned lists the worker's shard ids, sorted.
func (w *Worker) Owned() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ownedIDsLocked()
}

// Stats returns the worker's counters (Fired includes live shards).
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	st.Owned = len(w.owned)
	for _, os := range w.owned {
		st.Fired += os.cron.Stats().Fired
	}
	return st
}

// Shutdown is the graceful exit (SIGTERM): every shard is drained,
// compacted and released, so a clean shutdown never opens a steal window —
// peers can re-acquire the shards immediately.
func (w *Worker) Shutdown(now int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var firstErr error
	for _, sh := range w.ownedIDsLocked() {
		if err := w.releaseLocked(sh, now); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	w.coord.Depart(w.name)
	return firstErr
}
