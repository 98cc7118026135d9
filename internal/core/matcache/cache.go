// Package matcache implements a process-wide materialized-calendar cache:
// the cross-evaluation form of the paper's "mark any calendar that is
// encountered more than once to avoid generating values of the calendar
// unnecessarily" (§3.4). The plan compiler's common-subexpression sharing
// dedupes work within one query; this cache dedupes it across
// queries, rule firings and timeseries probes, which overwhelmingly re-ask
// for the same periodic calendars over overlapping windows.
//
// The cache holds one kind of entry: the materialized calendar of a derived
// catalog entry ("D|" keys) or a whole expression ("E|"), filed under its key
// and the exact window it was evaluated over. These are not periodic in
// general and their value depends on the window, so Get serves an exact
// window match or nothing. Basic calendars are not cached here: each is one
// all-time pattern, kept once per process by the symbolic lowering's memo
// (symbolic.Basic), which the plan executor expands, counts or selects from
// by arithmetic.
//
// Versions implement invalidation. A key's Version is a content key of what
// the value read (caldb's content key): equal versions of one (scope, ID,
// granularity) are equal values, whenever they were computed. Versions are
// not ordered: a window holds one entry per version, a Get at a version not
// resident misses, a Put of a resident version is a no-op, and a version no
// longer asked for ages out under LRU pressure like any cold entry. Do's
// valid argument keeps a result that is not its key's value out (caldb's
// witness).
//
// # Concurrency
//
// One sync.Mutex guards the whole cache: the index, the LRU list, the
// counters and Do's table of flights in progress. A Get holds it for a map
// lookup by key and window and a MoveToFront, so recency is exact
// LRU. The counters, the per-kind census among them, are kept on insert and
// evict, so Stats copies them in O(1). Any queueing on the lock shows in a
// -mutexprofile under the Cache methods that contended for it.
//
// Entry payloads (the *Calendar) are immutable from the moment an
// entry is published: eviction and Reset only detach entries, they never
// mutate them, so a pointer handed out by Get stays valid — a hit returns the
// cached calendar itself with no copy. Callers must treat cached calendars as
// read-only.
//
// Miss coalescing is layered on top: Do runs one materialization per
// (key, window) no matter how many goroutines miss concurrently, and shares
// the result (the cache-stampede control for cold starts and the misses a
// catalog write sets off; see flight.go).
//
// The cache is bounded by a byte budget with LRU eviction and exposes
// expvar-style counters via Stats.
package matcache

import (
	"container/list"
	"sync"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

// Key identifies one cached calendar: all materialized windows of one derived
// calendar or expression, at one granularity and version.
type Key struct {
	// Scope namespaces keys by owner (one catalog manager, including its
	// epoch), so unrelated databases in one process never cross-serve.
	Scope string
	// ID is the calendar identity: "D|<name>" for derived catalog entries,
	// "E|<expr>" for whole-expression materializations.
	ID string
	// Version is the content key of the catalog state the materialization
	// read.
	Version uint64
	// Gran is the tick granularity the values are expressed in.
	Gran chronology.Granularity
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits        int64 `json:"hits"`         // lookups served from a resident entry
	Misses      int64 `json:"misses"`       // lookups that found no entry
	Puts        int64 `json:"puts"`         // materializations inserted
	Rejected    int64 `json:"rejected"`     // materializations too large for the budget
	Evictions   int64 `json:"evictions"`    // entries evicted by LRU pressure
	Flights     int64 `json:"flights"`      // coalesced materializations run by Do leaders
	FlightWaits int64 `json:"flight_waits"` // Do callers that waited on another goroutine's flight
	Entries     int   `json:"entries"`      // resident (key, window) entries
	Bytes       int64 `json:"bytes"`        // resident bytes (estimated)
	Budget      int64 `json:"budget"`       // configured byte budget

	// The resident footprint by kind of key (see Key.ID): Derived.Bytes over
	// Derived.Entries is what one materialized derived calendar costs.
	Derived     KindStat `json:"derived"`     // "D|" derived catalog entries
	Expressions KindStat `json:"expressions"` // "E|" whole-expression results
}

// KindStat is the resident footprint of the keys of one kind.
type KindStat struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// entry is one resident value: a calendar materialized over exactly win.
//
// All payload fields are written once, before the entry is published into a
// bucket, and never mutated after: a calendar handed out by Get stays valid
// after the entry is evicted.
type entry struct {
	key   Key
	win   interval.Interval
	cal   *calendar.Calendar
	bytes int64
	elem  *list.Element
}

// Cache is a byte-bounded LRU of materialized calendars. It is safe for
// concurrent use; see the package comment for the locking discipline.
type Cache struct {
	mu       sync.Mutex
	stats    Stats // the counters and resident totals; Budget is the bound
	entries  map[slot]*entry
	lru      *list.List // front = most recently used; values are *entry
	inflight map[slot]*flight
}

// DefaultBudget is the byte budget of the shared process-wide cache.
const DefaultBudget = 64 << 20

// New returns an empty cache with the given byte budget (<= 0 means
// DefaultBudget).
func New(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Cache{
		stats:    Stats{Budget: budget},
		entries:  map[slot]*entry{},
		lru:      list.New(),
		inflight: map[slot]*flight{},
	}
}

var (
	sharedOnce sync.Once
	shared     *Cache
)

// Shared returns the process-wide cache every catalog manager plugs into.
func Shared() *Cache {
	sharedOnce.Do(func() { shared = New(DefaultBudget) })
	return shared
}

// slot identifies one value: a key plus the exact window it was evaluated
// over. Distinct windows of one key are distinct values; entries and flights
// are both indexed by it.
type slot struct {
	k   Key
	win interval.Interval
}

// Get returns the calendar materialized for key over exactly win.
//
// A hit returns the cached *calendar.Calendar itself (no copy). Cached
// calendars are immutable: concurrent Put/Reset/eviction can detach the
// entry but never mutates the calendar, so the returned value stays
// coherent; callers must not modify it.
func (c *Cache) Get(k Key, win interval.Interval) (*calendar.Calendar, bool) {
	c.mu.Lock()
	e := c.entries[slot{k, win}]
	if e == nil {
		c.stats.Misses++
		c.mu.Unlock()
		return nil, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(e.elem)
	c.mu.Unlock()
	return e.cal, true
}

// Put records a materialization of key over exactly win, unless one is
// resident (equal keys are equal values). The calendar becomes shared the
// moment it is inserted and must not be mutated afterwards.
func (c *Cache) Put(k Key, win interval.Interval, cal *calendar.Calendar) {
	if cal == nil {
		return
	}
	e := &entry{key: k, win: win, cal: cal, bytes: SizeOf(cal)}
	c.mu.Lock()
	c.insertLocked(e)
	c.mu.Unlock()
}

// insertLocked publishes e unless its key already holds its window or e
// alone exceeds the budget, then evicts from the back of the LRU until the
// resident bytes fit the budget again.
func (c *Cache) insertLocked(e *entry) {
	if c.entries[slot{e.key, e.win}] != nil {
		return
	}
	if e.bytes > c.stats.Budget {
		c.stats.Rejected++
		return
	}
	e.elem = c.lru.PushFront(e)
	c.entries[slot{e.key, e.win}] = e
	c.account(e, 1)
	c.stats.Puts++
	for c.stats.Bytes > c.stats.Budget {
		c.evictLocked(c.lru.Back().Value.(*entry))
	}
}

// evictLocked detaches e from the LRU, the counters and the index.
func (c *Cache) evictLocked(e *entry) {
	c.lru.Remove(e.elem)
	c.account(e, -1)
	c.stats.Evictions++
	delete(c.entries, slot{e.key, e.win})
}

// account adds (sign 1) or removes (sign -1) e in the resident totals and
// the census of its kind of key.
func (c *Cache) account(e *entry, sign int) {
	bytes := int64(sign) * e.bytes
	c.stats.Entries += sign
	c.stats.Bytes += bytes
	var kind *KindStat
	switch e.key.ID[:min(2, len(e.key.ID))] {
	case "D|":
		kind = &c.stats.Derived
	case "E|":
		kind = &c.stats.Expressions
	default:
		return
	}
	kind.Entries += sign
	kind.Bytes += bytes
}

// Reset empties the cache, keeping the budget and counters.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.entries = map[slot]*entry{}
	c.lru.Init()
	c.stats.Entries, c.stats.Bytes = 0, 0
	c.stats.Derived, c.stats.Expressions = KindStat{}, KindStat{}
	c.mu.Unlock()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// SizeOf returns the bytes a cached calendar keeps reachable, in O(1) below
// order 3: see calendar.SizeBytes for what is charged (a slab two entries
// share is charged to both).
func SizeOf(c *calendar.Calendar) int64 { return c.SizeBytes() }
