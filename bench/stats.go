package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// slice by the nearest-rank method; 0 for an empty slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(asc))*p/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(asc) {
		rank = len(asc) - 1
	}
	return asc[rank]
}

// median is the 50th percentile of an unsorted sample.
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// tailPercentile returns the highest of the candidate percentiles that still
// has at least ten samples beyond it in a sample of n — the rule the
// benchmark uses to pick the tail it reports (p95 for the thousands of
// requests of a serving slice, p90 for the ~100 probe days of a cron round).
// It returns 50 when even the lowest candidate is not supported.
func tailPercentile(n int, candidates ...float64) float64 {
	best := 50.0
	for _, p := range candidates {
		beyond := n - int(math.Ceil(float64(n)*p/100))
		if beyond >= 10 && p > best {
			best = p
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), which
// is the rule the driver applies to a metric's ten runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return asc[0], asc[0], asc[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
