package rules

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// heapQueue is the seed daemon's container — a container/heap binary
// min-heap ordered by runAt — kept here as the reference the timing wheel is
// held against.
type heapQueue struct {
	h firingHeap
}

func (q *heapQueue) add(pf pendingFiring) { heap.Push(&q.h, pf) }

func (q *heapQueue) popDue(limit int64) (pendingFiring, bool) {
	if len(q.h) == 0 || q.h[0].runAt > limit {
		return pendingFiring{}, false
	}
	return heap.Pop(&q.h).(pendingFiring), true
}

func (q *heapQueue) size() int { return len(q.h) }

// firingHeap is a min-heap of upcoming attempts ordered by runAt.
type firingHeap []pendingFiring

func (h firingHeap) Len() int           { return len(h) }
func (h firingHeap) Less(i, j int) bool { return h[i].runAt < h[j].runAt }
func (h firingHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *firingHeap) Push(x any)        { *h = append(*h, x.(pendingFiring)) }
func (h *firingHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	*h = old[:n-1]
	return f
}

// drain pops everything due at limit and returns the popped entries.
func drain(popDue func(int64) (pendingFiring, bool), limit int64) []pendingFiring {
	var out []pendingFiring
	for {
		pf, ok := popDue(limit)
		if !ok {
			return out
		}
		out = append(out, pf)
	}
}

// TestWheelMatchesHeapOracle drives the timing wheel and the seed heap with
// the same randomized add/pop script and requires identical results: the
// same entries popped at every limit, in the same nondecreasing runAt order.
func TestWheelMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := int64(725846400) // 1993-01-01
		w := newTimingWheel(base)
		h := &heapQueue{}
		now := base
		n := 0
		for step := 0; step < 200; step++ {
			switch rng.Intn(3) {
			case 0, 1: // add a batch, spread from overdue to ~3 years out
				for i := rng.Intn(8); i >= 0; i-- {
					off := rng.Int63n(3 * 365 * 86400)
					if rng.Intn(4) == 0 {
						off = -rng.Int63n(3600) // overdue (retry backlog)
					}
					pf := pendingFiring{
						Firing: Firing{Rule: fmt.Sprintf("r%d", n%7), At: now + off},
						runAt:  now + off,
					}
					n++
					w.add(pf)
					h.add(pf)
				}
			case 2: // advance and drain
				now += rng.Int63n(40 * 86400)
				wp, hp := drain(w.popDue, now), drain(h.popDue, now)
				if len(wp) != len(hp) {
					t.Fatalf("seed %d step %d: wheel popped %d, heap popped %d", seed, step, len(wp), len(hp))
				}
				counts := map[Firing]int{}
				for i := range wp {
					if wp[i].runAt > now {
						t.Fatalf("seed %d: popped runAt %d past limit %d", seed, wp[i].runAt, now)
					}
					if i > 0 && wp[i].runAt < wp[i-1].runAt {
						t.Fatalf("seed %d: wheel pop order regressed: %d after %d", seed, wp[i].runAt, wp[i-1].runAt)
					}
					if wp[i].runAt != hp[i].runAt {
						t.Fatalf("seed %d: pop %d runAt wheel=%d heap=%d", seed, i, wp[i].runAt, hp[i].runAt)
					}
					counts[wp[i].Firing]++
					counts[hp[i].Firing]--
				}
				for f, c := range counts {
					if c != 0 {
						t.Fatalf("seed %d: pop multiset mismatch at %v (%+d)", seed, f, c)
					}
				}
			}
			if w.size() != h.size() {
				t.Fatalf("seed %d: size wheel=%d heap=%d", seed, w.size(), h.size())
			}
		}
	}
}

// TestWheelNextBoundStalePlacement pins the subtle case: an entry placed at
// a coarse level while the base was far away keeps its slot as the base
// closes in, and can be earlier than fresher level-0 entries. It must still
// pop first.
func TestWheelNextBoundStalePlacement(t *testing.T) {
	w := newTimingWheel(0)
	early := pendingFiring{Firing: Firing{Rule: "early", At: 64}, runAt: 64}
	w.add(early) // 64-0 >= 64 → level 1
	if pf, ok := w.popDue(63); ok {
		t.Fatalf("nothing is due at 63, popped %+v", pf)
	}
	late := pendingFiring{Firing: Firing{Rule: "late", At: 100}, runAt: 100}
	w.add(late) // 100-63 < 64 → level 0
	got := drain(w.popDue, 100)
	if len(got) != 2 || got[0].Rule != "early" || got[1].Rule != "late" {
		t.Fatalf("drain = %+v, want early then late", got)
	}
}

// TestWheelRemoveRule removes one rule's entries across the due heap and
// every level, leaving the rest intact.
func TestWheelRemoveRule(t *testing.T) {
	w := newTimingWheel(1000)
	adds := []struct {
		rule  string
		runAt int64
	}{
		{"a", 900}, // overdue → due heap, which must stay a heap after removal
		{"b", 950},
		{"b", 700},
		{"a", 650},
		{"b", 990},
		{"b", 800},
		{"a", 750},
		{"b", 1001},   // level 0
		{"a", 1100},   // level ≥ 1
		{"b", 90000},  // coarse level
		{"a", 500000}, // coarser
	}
	for _, ad := range adds {
		w.add(pendingFiring{Firing: Firing{Rule: ad.rule, At: ad.runAt}, runAt: ad.runAt})
	}
	removed := w.removeRule("a")
	if len(removed) != 5 {
		t.Fatalf("removed %d entries of rule a, want 5", len(removed))
	}
	if w.size() != 6 {
		t.Fatalf("size = %d after removal, want 6", w.size())
	}
	rest := drain(w.popDue, 1<<40)
	want := []int64{700, 800, 950, 990, 1001, 90000}
	if len(rest) != len(want) {
		t.Fatalf("survivors = %+v, want b's %d entries", rest, len(want))
	}
	for i, pf := range rest {
		if pf.Rule != "b" || pf.runAt != want[i] {
			t.Fatalf("survivor %d = %s@%d, want b@%d", i, pf.Rule, pf.runAt, want[i])
		}
	}
}

// TestWheelYearJumpCascade advances the base across a multi-year gap in one
// popDue — every entry must come out, in order, regardless of how many
// levels the jump crosses.
func TestWheelYearJumpCascade(t *testing.T) {
	base := int64(725846400)
	w := newTimingWheel(base)
	const n = 500
	for i := 0; i < n; i++ {
		at := base + int64(i)*7919 // spread over ~45 days
		w.add(pendingFiring{Firing: Firing{Rule: "r", At: at}, runAt: at})
	}
	got := drain(w.popDue, base+10*365*86400)
	if len(got) != n {
		t.Fatalf("popped %d, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i].runAt < got[i-1].runAt {
			t.Fatalf("pop order regressed at %d", i)
		}
	}
	if w.size() != 0 {
		t.Fatalf("size = %d after draining, want 0", w.size())
	}
}
