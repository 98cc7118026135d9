package matcache

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

func gen(t testing.TB, ch *chronology.Chronology, of, in chronology.Granularity, lo, hi chronology.Tick) *calendar.Calendar {
	t.Helper()
	c, err := calendar.GenerateFull(ch, of, in, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// aperiodic builds an n-element sorted disjoint calendar with irregular gaps
// and widths — the shape of the derived calendars and expression results the
// cache holds materialized.
func aperiodic(t testing.TB, seed int64, n int) *calendar.Calendar {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ivs := make([]interval.Interval, 0, n)
	off := int64(1)
	for i := 0; i < n; i++ {
		lo := off
		off += int64(rng.Intn(5))
		ivs = append(ivs, interval.Interval{
			Lo: chronology.TickFromOffset(lo), Hi: chronology.TickFromOffset(off)})
		off += int64(rng.Intn(6)) + 1
	}
	c, err := calendar.FromIntervals(chronology.Day, ivs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGetServesExactWindowOnly(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	c := New(0)
	k := Key{Scope: "t", ID: "E|expr", Gran: chronology.Day}
	win := interval.Interval{Lo: 1, Hi: 100}
	c.Put(k, win, gen(t, ch, chronology.Week, chronology.Day, 1, 100))
	if _, ok := c.Get(k, interval.Interval{Lo: 10, Hi: 50}); ok {
		t.Fatal("a materialized entry served a subset window")
	}
	if _, ok := c.Get(k, win); !ok {
		t.Fatal("a materialized entry did not serve its exact window")
	}
	// Re-putting a resident window is a no-op.
	c.Put(k, win, gen(t, ch, chronology.Week, chronology.Day, 1, 100))
	if st := c.Stats(); st.Entries != 1 || st.Puts != 1 {
		t.Fatalf("second Put of a resident window was not a no-op: %+v", st)
	}
}

func TestVersionMiss(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	c := New(0)
	win := interval.Interval{Lo: 1, Hi: 100}
	cal := gen(t, ch, chronology.Week, chronology.Day, 1, 100)
	c.Put(Key{Scope: "t", ID: "D|paydays", Version: 1, Gran: chronology.Day}, win, cal)
	if _, ok := c.Get(Key{Scope: "t", ID: "D|paydays", Version: 2, Gran: chronology.Day}, win); ok {
		t.Fatal("entry served across a version bump")
	}
	if _, ok := c.Get(Key{Scope: "other", ID: "D|paydays", Version: 1, Gran: chronology.Day}, win); ok {
		t.Fatal("entry served across scopes")
	}
}

// Versions are content keys, not ordered: two versions of one window are
// both served, a Put of a resident version is a no-op (it keeps the entry
// and its bytes), and a version never put misses.
func TestVersionsOfAWindowCoexist(t *testing.T) {
	c := New(0)
	at := func(v uint64) Key { return Key{Scope: "t", ID: "E|bizdays", Version: v, Gran: chronology.Day} }
	a, b := aperiodic(t, 21, 40), aperiodic(t, 22, 80)
	win, _ := a.Hull()
	c.Put(at(5), win, a)
	c.Put(at(3), win, b)
	if got, ok := c.Get(at(5), win); !ok || got != a {
		t.Fatal("the first version is not served")
	}
	if got, ok := c.Get(at(3), win); !ok || got != b {
		t.Fatal("the second version is not served")
	}
	c.Put(at(5), win, b)
	if got, ok := c.Get(at(5), win); !ok || got != a {
		t.Fatal("a Put of a resident version displaced it")
	}
	if _, ok := c.Get(at(4), win); ok {
		t.Fatal("a version never put hit")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Puts != 2 || st.Bytes != SizeOf(a)+SizeOf(b) {
		t.Fatalf("after two versions and one repeated Put: %+v", st)
	}
}

// TestLRUEviction: byte pressure evicts from the cold end, and a stream of
// never-repeating versions of one key (each write of a calendar's inputs
// makes one) evicts its own oldest versions before a recently read other
// key, while the resident bytes stay within the one global budget.
func TestLRUEviction(t *testing.T) {
	// Each 100-element materialization is a header + 16*100 bytes; budget fits 2.
	c := New(5000)
	mk := func(id string) Key { return Key{Scope: "t", ID: id, Gran: chronology.Day} }
	cal := aperiodic(t, 7, 100)
	hull, _ := cal.Hull()
	win := hull
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		c.Put(mk(id), win, cal)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under byte pressure: %v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, st.Budget)
	}
	// The most recently inserted entry must survive.
	if _, ok := c.Get(mk("e"), win); !ok {
		t.Fatal("most recent entry was evicted")
	}
	// The oldest must be gone.
	if _, ok := c.Get(mk("a"), win); ok {
		t.Fatal("oldest entry survived eviction")
	}

	c = New(4*SizeOf(cal) + SizeOf(cal)/2) // fits 4 entries
	other := mk("E|other")
	c.Put(other, win, cal)
	version := func(v uint64) Key { return Key{Scope: "t", ID: "D|bizdays", Version: v, Gran: chronology.Day} }
	const stream = 20
	for v := uint64(1); v <= stream; v++ {
		if _, ok := c.Get(other, win); !ok {
			t.Fatalf("the recently read key was evicted by version %d of the stream", v-1)
		}
		c.Put(version(v), win, cal)
		if st := c.Stats(); st.Bytes > st.Budget {
			t.Fatalf("after version %d: resident bytes %d exceed budget %d", v, st.Bytes, st.Budget)
		}
	}
	// The stream fills all of the budget the other key does not hold.
	st = c.Stats()
	if st.Entries != 4 || st.Evictions != stream-3 {
		t.Fatalf("after %d versions: entries=%d evictions=%d, want 4 and %d", stream, st.Entries, st.Evictions, stream-3)
	}
	if size := SizeOf(cal); st.Derived != (KindStat{3, 3 * size}) || st.Expressions != (KindStat{1, size}) {
		t.Fatalf("census after evictions: derived %+v expressions %+v", st.Derived, st.Expressions)
	}
	for v := uint64(1); v <= stream; v++ {
		if _, ok := c.Get(version(v), win); ok != (v > stream-3) {
			t.Fatalf("version %d resident=%v; want only the newest 3", v, ok)
		}
	}
}

// TestGetPromotes: a Get moves its entry to the front of the LRU, so under
// eviction pressure the re-read entry survives and an unread peer placed
// after it is evicted instead.
func TestGetPromotes(t *testing.T) {
	cal := aperiodic(t, 7, 100)
	c := New(3*SizeOf(cal) + SizeOf(cal)/2) // fits 3 of the ~1.7 KiB entries
	hull, _ := cal.Hull()
	mk := func(id string) Key { return Key{Scope: "t", ID: id, Gran: chronology.Day} }
	c.Put(mk("a"), hull, cal)
	c.Put(mk("b"), hull, cal)
	c.Put(mk("c"), hull, cal)
	// Read "a" — the LRU back — then storm the cache with new entries.
	if _, ok := c.Get(mk("a"), hull); !ok {
		t.Fatal("entry a missing before the storm")
	}
	c.Put(mk("d"), hull, cal)
	c.Put(mk("e"), hull, cal)
	if c.Stats().Evictions == 0 {
		t.Fatal("storm caused no evictions")
	}
	if _, ok := c.Get(mk("a"), hull); !ok {
		t.Fatal("re-read entry a was evicted")
	}
	if _, ok := c.Get(mk("b"), hull); ok {
		t.Fatal("unread entry b survived while the cache evicted")
	}
}

func TestOversizeRejected(t *testing.T) {
	c := New(100)
	k := Key{Scope: "t", ID: "E|expr", Gran: chronology.Day}
	cal := aperiodic(t, 9, 1000)
	hull, _ := cal.Hull()
	c.Put(k, hull, cal)
	st := c.Stats()
	if st.Rejected != 1 || st.Entries != 0 {
		t.Fatalf("oversize entry not rejected: %v", st)
	}
}

// TestColdGetThenDoCountsOneMiss pins the accounting of the production
// calling sequence — Get, then Do on a miss: one cold request is one miss and
// one flight (the leader's re-check is not a second request), and a leader
// whose re-check finds the entry returns it without flying or counting.
func TestColdGetThenDoCountsOneMiss(t *testing.T) {
	c := New(0)
	k := Key{Scope: "t", ID: "E|expr", Gran: chronology.Day}
	cal := aperiodic(t, 13, 50)
	win, _ := cal.Hull()
	if _, ok := c.Get(k, win); ok {
		t.Fatal("hit on an empty cache")
	}
	got, err := c.Do(k, win, func() (*calendar.Calendar, error) { return cal, nil }, nil)
	if err != nil || got != cal {
		t.Fatalf("Do = %v, %v; want the materialized calendar", got, err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Flights != 1 || st.Hits != 0 {
		t.Fatalf("one cold Get-then-Do: misses=%d flights=%d hits=%d, want 1/1/0", st.Misses, st.Flights, st.Hits)
	}
	// The entry landed between a caller's miss and its Do: the re-check
	// serves it.
	got, err = c.Do(k, win, func() (*calendar.Calendar, error) {
		t.Error("materialize ran although the entry was resident")
		return nil, nil
	}, nil)
	if err != nil || got != cal {
		t.Fatalf("Do over a resident entry = %v, %v; want the cached calendar", got, err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Flights != 1 || st.Hits != 0 {
		t.Fatalf("re-check moved a counter: misses=%d flights=%d hits=%d, want 1/1/0", st.Misses, st.Flights, st.Hits)
	}
}

// TestStatsFieldNames pins the keys /debug/cachestats serves (and calbench
// decodes): the struct's json tags are the one spelling of each counter.
func TestStatsFieldNames(t *testing.T) {
	raw, err := json.Marshal(Stats{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"budget", "bytes", "derived", "entries", "evictions", "expressions", "flight_waits",
		"flights", "hits", "misses", "puts", "rejected"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats marshals keys\n %v\nwant\n %v", got, want)
	}
}

// TestStatsByKind: the per-kind census adds up to the resident totals and
// empties on Reset (TestLRUEviction follows it through eviction); two
// versions of one derived window are two entries.
func TestStatsByKind(t *testing.T) {
	c := New(0)
	cal := aperiodic(t, 3, 100)
	win, _ := cal.Hull()
	c.Put(Key{Scope: "t", ID: "D|bizdays", Version: 1, Gran: chronology.Day}, win, cal)
	c.Put(Key{Scope: "t", ID: "D|bizdays", Version: 2, Gran: chronology.Day}, win, cal)
	c.Put(Key{Scope: "t", ID: "E|[n]/bizdays:during:MONTHS", Version: 2, Gran: chronology.Day}, win, cal)
	st := c.Stats()
	want := Stats{
		Derived:     KindStat{Entries: 2, Bytes: 2 * SizeOf(cal)},
		Expressions: KindStat{Entries: 1, Bytes: SizeOf(cal)},
	}
	if st.Derived != want.Derived || st.Expressions != want.Expressions {
		t.Fatalf("census = %+v %+v, want %+v %+v", st.Derived, st.Expressions, want.Derived, want.Expressions)
	}
	if st.Derived.Entries+st.Expressions.Entries != st.Entries || st.Derived.Bytes+st.Expressions.Bytes != st.Bytes {
		t.Fatalf("kinds do not add up to entries=%d bytes=%d: %+v", st.Entries, st.Bytes, st)
	}
	c.Reset()
	if st := c.Stats(); st.Derived != (KindStat{}) || st.Expressions != (KindStat{}) {
		t.Fatalf("census after Reset: %+v", st)
	}
}

// TestSizeOfIsWhatAnEntryRetains builds 200 copies of a 35-year bizdays the
// way its derivation does — weekdays of every week, less 350 holidays — and 40
// of an order-3 tree, and holds SizeOf to within 10 % of the heap each
// retained copy really costs.
func TestSizeOfIsWhatAnEntryRetains(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	const last = 35*365 + 8
	days, weeks := gen(t, ch, chronology.Day, chronology.Day, 1, last), gen(t, ch, chronology.Week, chronology.Day, 1, last)
	rng := rand.New(rand.NewSource(18))
	hol := make([]chronology.Tick, 350)
	for i := range hol {
		hol[i] = chronology.Tick(1 + rng.Intn(last))
	}
	holidays, err := calendar.FromPoints(chronology.Day, hol)
	if err != nil {
		t.Fatal(err)
	}
	bizdays := func() *calendar.Calendar {
		byWeek, err := calendar.Foreach(days, interval.During, true, weeks)
		if err != nil {
			t.Fatal(err)
		}
		wd, err := calendar.Select(calendar.SelectList(1, 2, 3, 4, 5), byWeek)
		if err != nil {
			t.Fatal(err)
		}
		out, err := calendar.Diff(wd.Flatten(), holidays)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// An order-3 tree: two years of weeks, diced again by month. Every
	// sub-calendar owns a slab, and SizeOf descends to charge it.
	months := gen(t, ch, chronology.Month, chronology.Day, 1, 730)
	byWeek2y, err := calendar.Foreach(gen(t, ch, chronology.Day, chronology.Day, 1, 730), interval.During, true, gen(t, ch, chronology.Week, chronology.Day, 1, 730))
	if err != nil {
		t.Fatal(err)
	}
	order3 := func() *calendar.Calendar {
		out, err := calendar.Foreach(byWeek2y, interval.Overlaps, true, months)
		if err != nil || out.Order() != 3 {
			t.Fatalf("order-%d tree, err %v", out.Order(), err)
		}
		return out
	}
	bizdays() // builds the holidays' coverage index outside the measurement

	for _, tc := range []struct {
		name   string
		copies int
		build  func() *calendar.Calendar
	}{
		{"35-year bizdays", 200, bizdays},
		{"order-3 tree", 40, order3},
	} {
		copies := make([]*calendar.Calendar, tc.copies)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range copies {
			copies[i] = tc.build()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		measured := float64(after.HeapAlloc-before.HeapAlloc) / float64(len(copies))
		charged := float64(SizeOf(copies[0]))
		if charged < 0.9*measured || charged > 1.1*measured {
			t.Errorf("SizeOf charges %.0f B for a %s of %d leaves that retains %.0f B", charged, tc.name, copies[0].Cardinality(), measured)
		}
		if allocs := testing.AllocsPerRun(100, func() { SizeOf(copies[0]) }); allocs != 0 {
			t.Errorf("SizeOf of a %s allocates %.0f/op", tc.name, allocs)
		}
		runtime.KeepAlive(copies)
	}
}
