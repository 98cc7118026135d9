// Package matcache implements a process-wide materialized-calendar cache:
// the cross-evaluation form of the paper's "mark any calendar that is
// encountered more than once to avoid generating values of the calendar
// unnecessarily" (§3.4). The per-evaluation generation cache of the plan
// executor dedupes work within one query; this cache dedupes it across
// queries, rule firings and timeseries probes, which overwhelmingly re-ask
// for the same periodic calendars over overlapping windows.
//
// The cache holds two kinds of entry, keyed by (scope, calendar identity,
// version, granularity):
//
//   - One all-time pattern per generated basic calendar ("G|" keys). Every
//     valid basic pair is exactly periodic (periodic.ForBasicPair), so the
//     pattern is the calendar: it costs a few dozen bytes however many
//     centuries of windows it serves, every window of the pair is a hit, and
//     under LRU pressure basic calendars effectively never evict. The plan
//     executor reads it with GetPattern and expands, counts or selects from
//     it by arithmetic.
//   - Materialized calendars of derived catalog entries ("D|") and whole
//     expressions ("E|"), one per exact window. These are not periodic in
//     general and their value depends on the window they were evaluated over,
//     so Get serves an exact window match or nothing.
//
// Versions implement invalidation: the catalog bumps its generation on
// Define/Replace/Drop, so stale entries stop being addressable and age out of
// the LRU.
//
// # Concurrency
//
// The cache is sharded: keys hash (FNV-1a, the rules.ShardOf idiom) into a
// power-of-two array of shards, each with its own RWMutex, bucket map, LRU
// list and byte sub-budget, so readers of different keys never contend and
// readers of one key share an RLock. The read path never takes an exclusive
// lock: Get/GetPattern find the entry under RLock and hand out its immutable
// payload. LRU recency is tracked by a per-entry atomic access stamp; the list
// position is only reconciled lazily on the next write-side operation
// (second-chance promotion at eviction time), so a read costs two atomic
// adds beyond the RLock. All counters are atomics; the resident census Stats
// adds to them takes each shard's read lock in turn, so it never blocks a
// reader (and holds up an insert for one shard's walk at most).
//
// Entry payloads (the *Calendar or *Pattern) are immutable from the moment an
// entry is published: eviction and Reset only detach entries, they never
// mutate them, so a pointer handed out by Get stays valid — a hit returns the
// cached calendar itself with no copy. Callers must treat cached calendars as
// read-only.
//
// Miss coalescing is layered on top: Do runs one materialization per
// (key, window) no matter how many goroutines miss concurrently, and shares
// the result (the cache-stampede control for cold starts and
// generation-bump storms; see flight.go).
//
// The cache is bounded by a byte budget with LRU eviction and exposes
// expvar-style counters via Stats.
package matcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
	"calsys/internal/core/periodic"
)

// Key identifies one cached calendar: the pattern of a basic calendar, or all
// materialized windows of one derived calendar or expression, at one
// granularity.
type Key struct {
	// Scope namespaces keys by owner (one catalog manager, including its
	// epoch), so unrelated databases in one process never cross-serve.
	Scope string
	// ID is the calendar identity: "G|<basic>" for generated basic
	// calendars, "D|<name>" for derived catalog entries, "E|<expr>" for
	// whole-expression materializations.
	ID string
	// Version is the catalog version the materialization was computed
	// against; basic calendars, which depend only on the chronology, use 0.
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
	Patterns    int   `json:"patterns"`     // resident pattern entries
	Entries     int   `json:"entries"`      // resident (key, window) entries
	Bytes       int64 `json:"bytes"`        // resident bytes (estimated)
	Budget      int64 `json:"budget"`       // configured byte budget
	Shards      int   `json:"shards"`       // lock stripes the budget is split across

	// The resident footprint by kind of key (see Key.ID): Derived.Bytes over
	// Derived.Entries is what one materialized derived calendar costs.
	Generated   KindStat `json:"generated"`   // "G|" patterns of basic calendars
	Derived     KindStat `json:"derived"`     // "D|" derived catalog entries
	Expressions KindStat `json:"expressions"` // "E|" whole-expression results
}

// KindStat is the resident footprint of the keys of one kind.
type KindStat struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

func (k *KindStat) add(bytes int64) { k.Entries, k.Bytes = k.Entries+1, k.Bytes+bytes }

// ShardStat is one shard's resident footprint (per-shard counters would
// double the atomic traffic for no operational signal; the aggregate
// counters live in Stats).
type ShardStat struct {
	Entries  int   `json:"entries"`
	Patterns int   `json:"patterns"`
	Bytes    int64 `json:"bytes"`
	Budget   int64 `json:"budget"`
}

// entry is one resident value: the all-time pattern of a basic calendar
// (pat), or a calendar materialized over exactly win (cal).
//
// All payload fields are written once, before the entry is published into a
// bucket under the shard's write lock, and never mutated after — the
// immutability contract that lets the read path use them outside the lock.
// accessed/placed implement deferred LRU promotion: reads bump accessed (an
// atomic clock stamp); placed is the stamp at the entry's current list
// position, reconciled under the write lock at eviction time.
type entry struct {
	key      Key
	win      interval.Interval // zero on pattern entries
	cal      *calendar.Calendar
	pat      *periodic.Pattern
	bytes    int64
	elem     *list.Element
	accessed atomic.Int64
	placed   int64
}

// holds reports whether e occupies the slot (win, pattern) of its key: the
// key's one pattern entry (win zero), or its calendar over exactly win.
func (e *entry) holds(win interval.Interval, pattern bool) bool {
	return (e.pat != nil) == pattern && e.win == win
}

// shard is one lock stripe: a private bucket map, LRU list, byte sub-budget
// and read-path counters. Hit/miss counters live here rather than on Cache
// so the read fast path never touches a cache line shared by all stripes —
// on many cores a single global hit counter would bounce between sockets on
// every Get and cap the scaling the striping buys. The blank pad keeps
// neighboring shards off one cache line.
type shard struct {
	mu           sync.RWMutex
	budget       int64
	bytes        int64
	buckets      map[Key][]*entry
	lru          *list.List // front = most recently placed; values are *entry
	hits, misses atomic.Int64
	_            [64]byte
}

// Cache is a byte-bounded, sharded LRU of materialized calendars. It is safe
// for concurrent use; see the package comment for the locking discipline.
type Cache struct {
	budget int64
	mask   uint32
	shards []shard

	// clock is the logical access clock behind deferred LRU promotion. Only
	// write-side operations advance it; reads just load it, so the hot read
	// path never contends on this cache line.
	clock atomic.Int64

	puts, rejected, evictions atomic.Int64
	flights, flightWaits      atomic.Int64
	patterns                  atomic.Int64

	flightMu sync.Mutex
	inflight map[flightKey]*flight
}

// DefaultBudget is the byte budget of the shared process-wide cache.
const DefaultBudget = 64 << 20

// maxShards caps the stripe count; minShardBudget is the smallest byte
// sub-budget a stripe is allowed (halving below it stops the doubling), so
// tiny test budgets degenerate to one stripe with exactly the classic LRU
// semantics, while the default budget gets the full fan-out.
const (
	maxShards      = 16
	minShardBudget = 64 << 10
)

// shardCount picks the largest power of two ≤ maxShards whose per-shard
// budget stays ≥ minShardBudget.
func shardCount(budget int64) int {
	n := 1
	for n < maxShards && budget/int64(n)/2 >= minShardBudget {
		n *= 2
	}
	return n
}

// New returns an empty cache with the given byte budget (<= 0 means
// DefaultBudget).
func New(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	n := shardCount(budget)
	c := &Cache{
		budget:   budget,
		mask:     uint32(n - 1),
		shards:   make([]shard, n),
		inflight: map[flightKey]*flight{},
	}
	for i := range c.shards {
		c.shards[i].budget = budget / int64(n)
		c.shards[i].buckets = map[Key][]*entry{}
		c.shards[i].lru = list.New()
	}
	return c
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

// shardOf hashes a key (FNV-1a over every field, the rules.ShardOf idiom)
// onto its stripe.
func (c *Cache) shardOf(k Key) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(k.Scope); i++ {
		h ^= uint32(k.Scope[i])
		h *= prime32
	}
	h ^= 0xff // field separator: ("ab","c") must not collide with ("a","bc")
	h *= prime32
	for i := 0; i < len(k.ID); i++ {
		h ^= uint32(k.ID[i])
		h *= prime32
	}
	v := k.Version
	for i := 0; i < 8; i++ {
		h ^= uint32(v & 0xff)
		h *= prime32
		v >>= 8
	}
	h ^= uint32(k.Gran)
	h *= prime32
	return &c.shards[h&c.mask]
}

// touch stamps an entry as read since it was last placed. The LRU list is
// not moved — that would need the exclusive lock — the stamp is reconciled
// at eviction time. The stamp is clock.Load()+1, not clock.Add(1): the
// second-chance check only needs the binary signal accessed > placed, and a
// read-only load keeps the hot path off the clock's cache line. Any
// promotion or insert advances the clock, so a promoted entry's next read
// stamps strictly above its new placement.
func (c *Cache) touch(e *entry) {
	e.accessed.Store(c.clock.Load() + 1)
}

// lookup finds the resident entry of k holding (win, pattern) and stamps it as
// read. It touches no hit/miss counter.
func (c *Cache) lookup(sh *shard, k Key, win interval.Interval, pattern bool) *entry {
	sh.mu.RLock()
	var found *entry
	for _, e := range sh.buckets[k] {
		if e.holds(win, pattern) {
			found = e
			break
		}
	}
	sh.mu.RUnlock()
	if found != nil {
		c.touch(found)
	}
	return found
}

// count settles the hit/miss accounting of one lookup.
func (sh *shard) count(e *entry) bool {
	if e == nil {
		sh.misses.Add(1)
		return false
	}
	sh.hits.Add(1)
	return true
}

// Get returns the calendar materialized for key over exactly win.
//
// A hit returns the cached *calendar.Calendar itself (no copy). Cached
// calendars are immutable: concurrent Put/Reset/eviction can detach the
// entry but never mutates the calendar, so the returned value stays
// coherent; callers must not modify it.
func (c *Cache) Get(k Key, win interval.Interval) (*calendar.Calendar, bool) {
	sh := c.shardOf(k)
	e := c.lookup(sh, k, win, false)
	if !sh.count(e) {
		return nil, false
	}
	return e.cal, true
}

// GetPattern returns the all-time pattern cached for key. The plan executor
// answers expansion, cardinality and selection over a basic calendar from it
// in O(log spans) arithmetic, never materializing more than a consumer asks
// for.
func (c *Cache) GetPattern(k Key) (*periodic.Pattern, bool) {
	sh := c.shardOf(k)
	e := c.lookup(sh, k, interval.Interval{}, true)
	if !sh.count(e) {
		return nil, false
	}
	return e.pat, true
}

// Put records a materialization of key over exactly win; if that window is
// already resident the insert is a no-op. The calendar becomes shared the
// moment it is inserted and must not be mutated afterwards.
func (c *Cache) Put(k Key, win interval.Interval, cal *calendar.Calendar) {
	if cal == nil {
		return
	}
	c.insert(&entry{key: k, win: win, cal: cal, bytes: SizeOf(cal)})
}

// PutPattern records the all-time pattern of key: the exact periodic form of
// a basic calendar, valid over every window. A key keeps one pattern; a
// second insert is a no-op.
func (c *Cache) PutPattern(k Key, pat *periodic.Pattern) {
	if pat == nil {
		return
	}
	c.insert(&entry{key: k, pat: pat, bytes: pat.SizeBytes()})
}

// insert publishes e unless its shard cannot hold it or its slot is already
// occupied.
func (c *Cache) insert(e *entry) {
	sh := c.shardOf(e.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.bytes > sh.budget {
		c.rejected.Add(1)
		return
	}
	bucket := sh.buckets[e.key]
	for _, x := range bucket {
		if x.holds(e.win, e.pat != nil) {
			return
		}
	}
	c.insertLocked(sh, bucket, e)
}

// insertLocked adds e to its bucket and the shard LRU, then enforces the
// shard's byte sub-budget with second-chance eviction: a back-of-list entry
// whose atomic access stamp moved since it was last placed has been read
// since — it is promoted (deferred promotion applied here, the next
// write-side operation) instead of evicted. Each entry gets at most one
// chance per pass, so an eviction storm still terminates.
func (c *Cache) insertLocked(sh *shard, kept []*entry, e *entry) {
	e.placed = c.clock.Add(1)
	e.elem = sh.lru.PushFront(e)
	sh.buckets[e.key] = append(kept, e)
	sh.bytes += e.bytes
	c.puts.Add(1)
	if e.pat != nil {
		c.patterns.Add(1)
	}
	chances := sh.lru.Len()
	for sh.bytes > sh.budget {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		if a := victim.accessed.Load(); a > victim.placed && chances > 0 {
			chances--
			victim.placed = a
			sh.lru.MoveToFront(back)
			continue
		}
		sh.removeLocked(c, victim)
		sh.dropFromBucket(victim)
		c.evictions.Add(1)
	}
}

// removeLocked detaches e from the LRU and byte accounting (not the bucket).
func (sh *shard) removeLocked(c *Cache, e *entry) {
	sh.lru.Remove(e.elem)
	sh.bytes -= e.bytes
	if e.pat != nil {
		c.patterns.Add(-1)
	}
}

// dropFromBucket removes e from its bucket slice by swap-remove: bucket
// order carries no meaning (lookup scans the whole bucket).
func (sh *shard) dropFromBucket(e *entry) {
	bucket := sh.buckets[e.key]
	for i, x := range bucket {
		if x == e {
			last := len(bucket) - 1
			bucket[i] = bucket[last]
			bucket[last] = nil
			bucket = bucket[:last]
			break
		}
	}
	if len(bucket) == 0 {
		delete(sh.buckets, e.key)
	} else {
		sh.buckets[e.key] = bucket
	}
}

// Reset empties the cache, keeping the budget and counters.
func (c *Cache) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.buckets = map[Key][]*entry{}
		sh.lru.Init()
		sh.bytes = 0
		sh.mu.Unlock()
	}
	c.patterns.Store(0)
}

// Stats snapshots the counters. The monotone counters are lock-free atomics;
// the per-kind entry/byte census walks each shard's LRU list under its read
// lock, as ShardStats does, so no write or read path keeps per-kind counts —
// and a call costs O(resident entries), not O(shards).
func (c *Cache) Stats() Stats {
	st := Stats{
		Puts:     c.puts.Load(),
		Rejected: c.rejected.Load(), Evictions: c.evictions.Load(),
		Flights: c.flights.Load(), FlightWaits: c.flightWaits.Load(),
		Patterns: int(c.patterns.Load()),
		Budget:   c.budget, Shards: len(c.shards),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		st.Hits += sh.hits.Load()
		st.Misses += sh.misses.Load()
		sh.mu.RLock()
		st.Entries += sh.lru.Len()
		st.Bytes += sh.bytes
		for e := sh.lru.Front(); e != nil; e = e.Next() {
			switch en := e.Value.(*entry); en.key.ID[:min(2, len(en.key.ID))] {
			case "G|":
				st.Generated.add(en.bytes)
			case "D|":
				st.Derived.add(en.bytes)
			case "E|":
				st.Expressions.add(en.bytes)
			}
		}
		sh.mu.RUnlock()
	}
	return st
}

// ShardStats snapshots each shard's resident footprint, for the
// /debug/cachestats endpoint and stripe-balance checks.
func (c *Cache) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		pats := 0
		for e := sh.lru.Front(); e != nil; e = e.Next() {
			if e.Value.(*entry).pat != nil {
				pats++
			}
		}
		out[i] = ShardStat{Entries: sh.lru.Len(), Patterns: pats, Bytes: sh.bytes, Budget: sh.budget}
		sh.mu.RUnlock()
	}
	return out
}

// SizeOf returns the bytes a cached calendar keeps reachable, in O(1) below
// order 3: see calendar.SizeBytes for what is charged (a slab two entries
// share is charged to both).
func SizeOf(c *calendar.Calendar) int64 { return c.SizeBytes() }
