package plan

import (
	"fmt"
	"sync"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/matcache"
)

// Concurrent evaluations sharing one materialization cache must agree with a
// serial, uncached evaluation — the shared cache may change how values are
// produced, never which values.
func TestConcurrentEvaluateSharedCache(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	cat := NewMapCatalog()
	mat := matcache.New(1 << 20)
	baseline := &Env{Chron: ch, Cat: cat}
	shared := &Env{Chron: ch, Cat: cat, Mat: mat, MatScope: "test"}

	exprs := []string{
		"[1]/DAYS:during:WEEKS",
		"WEEKS + MONTHS",
		"([1]/DAYS:during:WEEKS) + ([3]/DAYS:during:WEEKS)",
		"MONTHS:during:YEARS",
	}
	type result struct {
		expr string
		yr   int
		cal  *calendar.Calendar
	}
	want := map[string]*calendar.Calendar{}
	for _, src := range exprs {
		for yr := 1990; yr < 1994; yr++ {
			e, err := callang.ParseExpr(src)
			if err != nil {
				t.Fatal(err)
			}
			from := chronology.Civil{Year: yr, Month: 1, Day: 1}
			to := chronology.Civil{Year: yr, Month: 12, Day: 31}
			c, err := Evaluate(baseline, e, from, to)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("%s/%d", src, yr)] = c
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	results := make(chan result, workers*len(want))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, src := range exprs {
				for yr := 1990; yr < 1994; yr++ {
					// Stagger the order per worker to mix cache hits/misses.
					y := 1990 + (yr+w+i)%4
					e, err := callang.ParseExpr(src)
					if err != nil {
						t.Error(err)
						return
					}
					from := chronology.Civil{Year: y, Month: 1, Day: 1}
					to := chronology.Civil{Year: y, Month: 12, Day: 31}
					c, err := Evaluate(shared, e, from, to)
					if err != nil {
						t.Error(err)
						return
					}
					results <- result{expr: src, yr: y, cal: c}
				}
			}
		}(w)
	}
	wg.Wait()
	close(results)
	for r := range results {
		if !r.cal.Equal(want[fmt.Sprintf("%s/%d", r.expr, r.yr)]) {
			t.Fatalf("concurrent cached evaluation of %q over %d diverged from serial baseline", r.expr, r.yr)
		}
	}
	if st := mat.Stats(); st.Hits == 0 {
		t.Fatalf("shared cache never hit across %d evaluations: %+v", workers*len(want), st)
	}
}
