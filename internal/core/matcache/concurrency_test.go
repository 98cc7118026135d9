package matcache

import (
	"fmt"
	"sync"
	"testing"

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

// Concurrent readers of one cached pattern must all see correct expansions
// of whatever window they ask for.
func TestConcurrentSubsetReads(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	c := New(0)
	k := Key{Scope: "t", ID: "G|months", Gran: chronology.Day}
	pat, err := periodicForTest(ch)
	if err != nil {
		t.Fatal(err)
	}
	c.PutPattern(k, pat)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lo := chronology.Tick(1 + (w*211+i*97)%30000)
				win := interval.Interval{Lo: lo, Hi: lo + 364}
				p, ok := c.GetPattern(k)
				if !ok {
					t.Errorf("pattern entry stopped serving %v", win)
					return
				}
				want, err := calendar.GenerateFull(ch, chronology.Month, chronology.Day, win.Lo, win.Hi)
				if err != nil {
					t.Error(err)
					return
				}
				if !calendar.ExpandPattern(k.Gran, p, win).Equal(want) {
					t.Errorf("expansion mismatch over %v", win)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
