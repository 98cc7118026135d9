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
			}, nil)
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
			}, nil)
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
	}, nil); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before+1 {
		t.Fatal("failed flight left a cached result")
	}
	if _, ok := c.Get(k, win); !ok {
		t.Fatal("successful retry was not cached")
	}
}

// A flight whose result valid rejects is stale: it is not filed, and a waiter
// that joined it materializes for itself instead of sharing it. This is the
// read that started after a write the leader's evaluation straddled; its own
// result goes unfiled too (the next miss flies again).
func TestStaleFlightNotShared(t *testing.T) {
	c := New(0)
	k := Key{Scope: "t", ID: "E|bizdays", Version: 7, Gran: chronology.Day}
	stale, fresh := aperiodic(t, 21, 40), aperiodic(t, 22, 40)
	win, _ := stale.Hull()
	release := make(chan struct{})
	leader := make(chan *calendar.Calendar)
	go func() {
		got, _ := c.Do(k, win, func() (*calendar.Calendar, error) {
			<-release
			return stale, nil
		}, func() bool { return false })
		leader <- got
	}()
	for c.Stats().Flights == 0 {
		time.Sleep(time.Millisecond)
	}
	waiter := make(chan *calendar.Calendar)
	go func() {
		got, _ := c.Do(k, win, func() (*calendar.Calendar, error) { return fresh, nil }, func() bool { return true })
		waiter <- got
	}()
	for c.Stats().FlightWaits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if got := <-leader; got != stale {
		t.Fatal("the leader did not get its own result")
	}
	if got := <-waiter; got != fresh {
		t.Fatal("a waiter shared a stale flight's result")
	}
	if _, ok := c.Get(k, win); ok {
		t.Fatal("a stale flight filed a result")
	}
}
