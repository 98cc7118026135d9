package rules

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkTimingWheelVsHeap drives one simulated week of daemon queue
// traffic — 100k armed firings popped through hourly probe ticks — through
// the timing wheel, whose bookkeeping is incremental: a probe tick costs
// O(entries due in that tick), not O(all pending). (The heap it replaced is
// retired; its final numbers are in EXPERIMENTS.md "Retired arms". The name
// is kept so the gated baseline row carries over.)
func BenchmarkTimingWheelVsHeap(b *testing.B) {
	b.Run("wheel", func(b *testing.B) {
		const (
			entries = 100_000
			window  = int64(7 * 86400)
			tick    = int64(3600)
		)
		base := int64(725846400)
		rng := rand.New(rand.NewSource(42))
		pfs := make([]pendingFiring, entries)
		for i := range pfs {
			at := base + rng.Int63n(window)
			pfs[i] = pendingFiring{
				Firing: Firing{Rule: fmt.Sprintf("rule-%04d", i&1023), At: at},
				runAt:  at,
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			q := newTimingWheel(base)
			for i := range pfs {
				q.add(pfs[i])
			}
			popped := 0
			for now := base; now <= base+window; now += tick {
				for {
					if _, ok := q.popDue(now); !ok {
						break
					}
					popped++
				}
			}
			if popped != entries {
				b.Fatalf("popped %d of %d", popped, entries)
			}
		}
	})
}
