package matcache

import (
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

// flight is one in-progress materialization. The leader closes done after
// publishing cal/err/stale; waiters block on done and read the fields
// afterwards (the close is the happens-before edge).
type flight struct {
	done  chan struct{}
	cal   *calendar.Calendar
	err   error
	stale bool
}

// Do coalesces concurrent misses: when N goroutines ask for the same
// (key, win) at once, exactly one — the leader — runs materialize; the rest
// block until it finishes and share its result. This is the cache-stampede
// control for cold starts and catalog writes, after which every client of
// a popular calendar misses at the same instant and would otherwise each run
// the same expensive evaluation.
//
// The leader re-checks the cache and registers its flight in one critical
// section (a previous flight may have landed between this caller's miss and
// its Do), and on success files the result and unregisters the flight in
// another, so later requests hit the cache proper — unless valid (nil:
// always true), called after materialize, rejects it as not k's value; then
// each waiter materializes for itself, unfiled. The re-check is not a request
// of its own — the caller's Get already counted the miss — so it moves no
// hit/miss counter. Errors are returned to the leader and every waiter of
// that flight, and nothing is cached.
//
// Do must not be called from inside a materialize closure with a slot
// that other goroutines could concurrently lead while waiting on this one —
// callers keep the wait graph acyclic by only flying at distinct
// materialization levels (expression → derived).
func (c *Cache) Do(k Key, win interval.Interval, materialize func() (*calendar.Calendar, error), valid func() bool) (*calendar.Calendar, error) {
	fk := slot{k: k, win: win}
	c.mu.Lock()
	if f, ok := c.inflight[fk]; ok {
		c.stats.FlightWaits++
		c.mu.Unlock()
		<-f.done
		if f.stale {
			return materialize()
		}
		if f.err != nil {
			return nil, f.err
		}
		return f.cal, nil
	}
	if e := c.entries[slot{k, win}]; e != nil {
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		return e.cal, nil
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[fk] = f
	c.stats.Flights++
	c.mu.Unlock()

	f.cal, f.err = materialize()
	f.stale = valid != nil && !valid()
	var e *entry
	if f.err == nil && !f.stale && f.cal != nil {
		e = &entry{key: k, win: win, cal: f.cal, bytes: SizeOf(f.cal)}
	}
	c.mu.Lock()
	if e != nil {
		c.insertLocked(e)
	}
	delete(c.inflight, fk)
	c.mu.Unlock()
	close(f.done)
	return f.cal, f.err
}
