package matcache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

// Hammer the cache from many goroutines mixing gets, puts, version bumps,
// stats and resets; run under -race this pins down the locking discipline.
func TestConcurrentGetPut(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	c := New(1 << 20)
	const workers = 8
	const iters = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("D|cal%d", i%5)
				k := Key{Scope: "t", ID: id, Version: uint64(i % 3), Gran: chronology.Day}
				lo := chronology.Tick(1 + (i%7)*50)
				win := interval.Interval{Lo: lo, Hi: lo + 199}
				if got, ok := c.Get(k, win); ok {
					if got.Granularity() != chronology.Day {
						t.Errorf("wrong granularity from cache")
						return
					}
					continue
				}
				cal, err := calendar.GenerateFull(ch, chronology.Week, chronology.Day, win.Lo, win.Hi)
				if err != nil {
					t.Error(err)
					return
				}
				c.Put(k, win, cal)
				if i%50 == 0 {
					_ = c.Stats()
				}
				if w == 0 && i == iters/2 {
					c.Reset()
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.Budget {
		t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, st.Budget)
	}
	if st.Bytes < 0 {
		t.Fatalf("negative resident bytes %d", st.Bytes)
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
