package matcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

func TestShardCount(t *testing.T) {
	cases := []struct {
		budget int64
		want   int
	}{
		{100, 1},
		{5000, 1},
		{minShardBudget, 1},
		{2 * minShardBudget, 2},
		{16 * minShardBudget, 16},
		{DefaultBudget, 16},
	}
	for _, tc := range cases {
		if got := shardCount(tc.budget); got != tc.want {
			t.Errorf("shardCount(%d) = %d, want %d", tc.budget, got, tc.want)
		}
		if got := New(tc.budget).Stats().Shards; got != tc.want {
			t.Errorf("New(%d).Stats().Shards = %d, want %d", tc.budget, got, tc.want)
		}
	}
}

// keysInShard returns n distinct keys that all hash to the same stripe as
// anchor — the adversarial access pattern for budget-fairness tests.
func keysInShard(c *Cache, anchor Key, n int) []Key {
	target := c.shardOf(anchor)
	keys := []Key{anchor}
	for i := 0; len(keys) < n; i++ {
		k := Key{Scope: anchor.Scope, ID: fmt.Sprintf("%s-%d", anchor.ID, i), Gran: anchor.Gran}
		if c.shardOf(k) == target {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestShardBudgetFairness: a workload that hammers one stripe must evict
// within that stripe's sub-budget — it cannot grow the stripe to the whole
// global budget and starve the others.
func TestShardBudgetFairness(t *testing.T) {
	budget := int64(8 * minShardBudget) // 4 shards of 2*minShardBudget each
	c := New(budget)
	if len(c.shards) < 2 {
		t.Fatalf("want a multi-shard cache, got %d shards", len(c.shards))
	}
	perShard := budget / int64(len(c.shards))

	cal := aperiodic(t, 3, 1000) // ~16 KiB
	hull, _ := cal.Hull()
	anchor := Key{Scope: "t", ID: "D|hot", Gran: chronology.Day}
	target := c.shardOf(anchor)
	// Enough hot-shard entries to overflow the sub-budget several times.
	n := int(3*perShard/SizeOf(cal)) + 2
	for _, k := range keysInShard(c, anchor, n) {
		c.Put(k, hull, cal)
	}

	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("hot shard saw no evictions: %v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("resident bytes %d exceed global budget %d", st.Bytes, st.Budget)
	}
	for i, ss := range c.ShardStats() {
		if ss.Budget != perShard {
			t.Fatalf("shard %d budget = %d, want %d", i, ss.Budget, perShard)
		}
		if ss.Bytes > ss.Budget {
			t.Fatalf("shard %d holds %d bytes over its %d sub-budget", i, ss.Bytes, ss.Budget)
		}
		if &c.shards[i] != target && ss.Entries != 0 {
			t.Fatalf("cold shard %d holds %d entries from a single-shard workload", i, ss.Entries)
		}
	}
}

// TestDeferredPromotionSurvivesEviction: a read does not MoveToFront, but
// its access stamp must count — under eviction pressure the re-read entry is
// promoted (second chance) and an unread peer placed after it is evicted
// instead.
func TestDeferredPromotionSurvivesEviction(t *testing.T) {
	cal := aperiodic(t, 7, 100)
	c := New(3*SizeOf(cal) + SizeOf(cal)/2) // single shard, fits 3 of the ~1.7 KiB entries
	if len(c.shards) != 1 {
		t.Fatalf("want a single-shard cache, got %d shards", len(c.shards))
	}
	hull, _ := cal.Hull()
	mk := func(id string) Key { return Key{Scope: "t", ID: id, Gran: chronology.Day} }
	c.Put(mk("a"), hull, cal)
	c.Put(mk("b"), hull, cal)
	c.Put(mk("c"), hull, cal)
	// Read "a" — the LRU back — then storm the shard with new entries.
	if _, ok := c.Get(mk("a"), hull); !ok {
		t.Fatal("entry a missing before the storm")
	}
	c.Put(mk("d"), hull, cal)
	c.Put(mk("e"), hull, cal)
	if c.Stats().Evictions == 0 {
		t.Fatal("storm caused no evictions")
	}
	if _, ok := c.Get(mk("a"), hull); !ok {
		t.Fatal("re-read entry a was evicted despite its access stamp")
	}
	if _, ok := c.Get(mk("b"), hull); ok {
		t.Fatal("unread entry b survived while the shard evicted")
	}
}

// TestGetImmutableUnderPutResetStorm is the immutability-contract hammer:
// Gets return the cached *Calendar with no copy, so while eviction and Reset
// detach entries concurrently, the returned
// value must stay equal to what was inserted (and -race must stay quiet).
func TestGetImmutableUnderPutResetStorm(t *testing.T) {
	c := New(5000) // tiny budget: every Put evicts
	k := Key{Scope: "t", ID: "E|hot", Gran: chronology.Day}
	cal := aperiodic(t, 11, 100)
	hull, _ := cal.Hull()
	c.Put(k, hull, cal) // hits alias the cached value

	churn := make([]*calendar.Calendar, 8)
	for i := range churn {
		churn[i] = aperiodic(t, 100+int64(i), 100)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ev := churn[(w+i)%len(churn)]
				h, _ := ev.Hull()
				c.Put(Key{Scope: "t", ID: fmt.Sprintf("E|churn%d-%d", w, i%16), Gran: chronology.Day}, h, ev)
				if i%64 == 0 {
					c.Reset()
				}
				c.Put(k, hull, cal)
			}
		}(w)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	reads := 0
	for time.Now().Before(deadline) {
		got, ok := c.Get(k, hull)
		if !ok {
			continue // detached mid-churn; a writer will re-Put it
		}
		reads++
		if !got.Equal(cal) {
			close(stop)
			wg.Wait()
			t.Fatalf("cached calendar mutated under concurrent Put/Reset (read %d)", reads)
		}
	}
	close(stop)
	wg.Wait()
	if reads == 0 {
		t.Fatal("hammer never observed a hit")
	}
}

func TestSingleflightDedup(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	c := New(0)
	k := Key{Scope: "t", ID: "D|weeks", Gran: chronology.Day}
	win := interval.Interval{Lo: 1, Hi: 3650}
	want := gen(t, ch, chronology.Week, chronology.Day, win.Lo, win.Hi)
	fresh := gen(t, ch, chronology.Week, chronology.Day, win.Lo, win.Hi)

	var calls atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := c.Do(k, win, func() (*calendar.Calendar, error) {
				calls.Add(1)
				time.Sleep(20 * time.Millisecond) // hold the flight open so the herd piles up
				return fresh, nil
			})
			if err != nil {
				errs <- err
				return
			}
			if !got.Equal(want) {
				errs <- fmt.Errorf("flight result differs from direct generation")
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("64 concurrent misses ran materialize %d times, want exactly 1", n)
	}
	st := c.Stats()
	if st.Flights != 1 {
		t.Fatalf("flights = %d, want 1", st.Flights)
	}
	if st.FlightWaits == 0 {
		t.Fatal("no goroutine ever waited on the flight")
	}
	// The leader's Put means later misses on the same window hit the cache
	// proper without flying at all.
	if _, ok := c.Get(k, win); !ok {
		t.Fatal("flight result was not cached")
	}
}

func TestSingleflightErrorPropagates(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	c := New(0)
	k := Key{Scope: "t", ID: "D|bad", Gran: chronology.Day}
	win := interval.Interval{Lo: 1, Hi: 100}
	boom := errors.New("boom")

	var calls atomic.Int64
	var wg sync.WaitGroup
	var wrongErr atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Do(k, win, func() (*calendar.Calendar, error) {
				calls.Add(1)
				time.Sleep(10 * time.Millisecond)
				return nil, boom
			})
			if !errors.Is(err, boom) {
				wrongErr.Add(1)
			}
		}()
	}
	wg.Wait()
	if wrongErr.Load() != 0 {
		t.Fatalf("%d callers got the wrong error", wrongErr.Load())
	}
	if calls.Load() == 0 {
		t.Fatal("materialize never ran")
	}
	// Failures are not cached: the next Do must materialize again.
	before := calls.Load()
	if _, err := c.Do(k, win, func() (*calendar.Calendar, error) {
		calls.Add(1)
		return gen(t, ch, chronology.Week, chronology.Day, win.Lo, win.Hi), nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before+1 {
		t.Fatal("failed flight left a cached result")
	}
	if _, ok := c.Get(k, win); !ok {
		t.Fatal("successful retry was not cached")
	}
}
