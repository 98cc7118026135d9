package matcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

// BenchmarkCacheParallelGet measures the read path under concurrency: every
// goroutine cycles exact-window Gets over a pre-warmed key set (the
// steady-state shape of calserved's expansion traffic). Run with -cpu=1,4,8
// to see how the one lock's read path scales. The sub-benchmark keeps the
// name "sharded" from the lock-striped cache it was written for, so the gated
// baseline row and the -gate patterns of the Makefile and CI carry over.
func BenchmarkCacheParallelGet(b *testing.B) {
	b.Run("sharded", func(b *testing.B) {
		c := New(0)
		cal := aperiodic(b, 5, 64)
		hull, _ := cal.Hull()
		const nkeys = 64
		keys := make([]Key, nkeys)
		for i := range keys {
			keys[i] = Key{Scope: "b", ID: fmt.Sprintf("E|k%d", i), Gran: chronology.Day}
			c.Put(keys[i], hull, cal)
		}
		var missed atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, ok := c.Get(keys[i%nkeys], hull); !ok {
					missed.Add(1)
				}
				i++
			}
		})
		b.StopTimer()
		if missed.Load() != 0 {
			b.Fatalf("%d misses on a fully warmed cache", missed.Load())
		}
	})
}

// BenchmarkCacheStampede measures a cold-start thundering herd: per
// iteration, 64 goroutines miss on one (key, window) simultaneously and Do
// must collapse them to exactly one generation — the count is pinned after
// the timer stops, so a duplicated generation fails the benchmark rather
// than just slowing it.
func BenchmarkCacheStampede(b *testing.B) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	win := interval.Interval{Lo: 1, Hi: 3650}
	var gens atomic.Int64
	var failures atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(0) // cold cache every iteration: the herd always misses
		k := Key{Scope: "b", ID: "D|weeks", Gran: chronology.Day}
		var wg sync.WaitGroup
		for g := 0; g < 64; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := c.Do(k, win, func() (*calendar.Calendar, error) {
					gens.Add(1)
					return calendar.GenerateFull(ch, chronology.Week, chronology.Day, win.Lo, win.Hi)
				}, nil)
				if err != nil {
					failures.Add(1)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	if failures.Load() != 0 {
		b.Fatalf("%d flight errors", failures.Load())
	}
	if gens.Load() != int64(b.N) {
		b.Fatalf("%d generations over %d stampedes — singleflight must pin exactly 1 per (key, window)", gens.Load(), b.N)
	}
}
