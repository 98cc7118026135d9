package matcache

import (
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

// flightKey identifies one coalescable materialization: a cache key plus the
// exact window being evaluated. Distinct windows of one key fly separately —
// they produce different results.
type flightKey struct {
	k   Key
	win interval.Interval
}

// flight is one in-progress materialization. The leader closes done after
// publishing cal/err; waiters block on done and read the fields afterwards
// (the close is the happens-before edge).
type flight struct {
	done chan struct{}
	cal  *calendar.Calendar
	err  error
}

// Do coalesces concurrent misses: when N goroutines ask for the same
// (key, win) at once, exactly one — the leader — runs materialize; the rest
// block until it finishes and share its result. This is the cache-stampede
// control for cold starts and generation-bump storms, where every client of
// a popular calendar misses at the same instant and would otherwise each run
// the same expensive evaluation.
//
// The leader re-checks the cache before materializing (a previous flight may
// have landed between this caller's miss and its flight acquisition), and on
// success inserts the result via Put so later requests hit the cache proper.
// The re-check is not a request of its own — the caller's Get already counted
// the miss — so it moves no hit/miss counter. Errors are returned to the
// leader and every waiter of that flight, and nothing is cached.
//
// Do must not be called from inside a materialize closure with a flightKey
// that other goroutines could concurrently lead while waiting on this one —
// callers keep the wait graph acyclic by only flying at distinct
// materialization levels (expression → derived).
func (c *Cache) Do(k Key, win interval.Interval, materialize func() (*calendar.Calendar, error)) (*calendar.Calendar, error) {
	fk := flightKey{k: k, win: win}
	c.flightMu.Lock()
	if f, ok := c.inflight[fk]; ok {
		c.flightMu.Unlock()
		c.flightWaits.Add(1)
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		return f.cal, nil
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[fk] = f
	c.flightMu.Unlock()

	// Leader. The cache re-check catches the race where another flight for
	// this (key, win) completed between this goroutine's miss and its
	// flight acquisition.
	if e := c.lookup(c.shardOf(k), k, win, false); e != nil {
		f.cal = e.cal
		c.settle(fk, f)
		return f.cal, nil
	}
	c.flights.Add(1)
	f.cal, f.err = materialize()
	if f.err == nil {
		c.Put(k, win, f.cal)
	}
	c.settle(fk, f)
	return f.cal, f.err
}

// settle unregisters the flight and releases its waiters.
func (c *Cache) settle(fk flightKey, f *flight) {
	c.flightMu.Lock()
	delete(c.inflight, fk)
	c.flightMu.Unlock()
	close(f.done)
}
