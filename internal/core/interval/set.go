package interval

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"calsys/internal/chronology"
)

// A Set is a normalized list of intervals: sorted by lower bound, pairwise
// disjoint and non-adjacent (adjacent intervals are coalesced), so distinct
// intervals are separated by at least one uncovered tick. Sets give the
// calendar operators +, - and intersects their point-set semantics, and a
// calendar caches its coverage as one.
type Set struct {
	ivs []Interval
}

// NewSet builds a normalized set from arbitrary intervals.
func NewSet(ivs ...Interval) Set { return sortOwned(slices.Clone(ivs)) }

// sortOwned normalizes a slice the caller hands over.
func sortOwned(ivs []Interval) Set {
	slices.SortFunc(ivs, func(a, b Interval) int {
		return cmp.Or(cmp.Compare(a.Lo, b.Lo), cmp.Compare(a.Hi, b.Hi))
	})
	return SortedSet(ivs)
}

// touches reports whether an interval starting at lo overlaps or is adjacent
// to coverage that ends at hi and starts no later than lo.
func touches(hi, lo chronology.Tick) bool { return lo <= chronology.NextTick(hi) }

// SortedSet builds the set covered by intervals already in non-decreasing
// order of lower bound, without sorting. Input that is already normal is
// shared, not copied, and must not be modified afterwards; anything else is
// fused into one exact-size slice.
func SortedSet(ivs []Interval) Set {
	spans, hi := 0, chronology.Tick(0)
	for i, iv := range ivs {
		if i == 0 || !touches(hi, iv.Lo) {
			spans++
			hi = iv.Hi
		} else if iv.Hi > hi {
			hi = iv.Hi
		}
	}
	if spans == len(ivs) {
		return Set{ivs: ivs}
	}
	out := make([]Interval, 0, spans)
	for _, iv := range ivs {
		if n := len(out); n == 0 || !touches(out[n-1].Hi, iv.Lo) {
			out = append(out, iv)
		} else if iv.Hi > out[n-1].Hi {
			out[n-1].Hi = iv.Hi
		}
	}
	return Set{ivs: out}
}

// Intervals returns the set's intervals in order. The slice is shared; do
// not modify it.
func (s Set) Intervals() []Interval { return s.ivs }

// Empty reports whether the set covers no ticks.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Len returns the number of maximal intervals in the set.
func (s Set) Len() int { return len(s.ivs) }

// Cardinality returns the number of ticks covered.
func (s Set) Cardinality() int64 {
	var n int64
	for _, iv := range s.ivs {
		n += iv.Length()
	}
	return n
}

// Contains reports whether tick t is covered by the set.
func (s Set) Contains(t chronology.Tick) bool {
	if t == 0 {
		return false
	}
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= t })
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}

// Without appends to dst, in order, the pieces of each interval of xs that s
// does not cover. While lower bounds do not decrease (the intervals may
// overlap) the first span of s that can cut an interval only moves forward, so
// the call is one linear merge; an interval that steps back — a descending
// selection, the output of a Diff over an overlapping operand — restarts the
// cursor.
func (s Set) Without(dst, xs []Interval) []Interval {
	cov := s.ivs
	j := 0
	for i, iv := range xs {
		if i > 0 && iv.Lo < xs[i-1].Lo {
			j = 0
		}
		for j < len(cov) && cov[j].Hi < iv.Lo {
			j++
		}
		lo, dead := iv.Lo, false
		for k := j; k < len(cov) && cov[k].Lo <= iv.Hi; k++ {
			if cov[k].Lo > lo {
				dst = append(dst, Interval{Lo: lo, Hi: chronology.PrevTick(cov[k].Lo)})
			}
			if cov[k].Hi >= iv.Hi {
				dead = true
				break
			}
			lo = chronology.NextTick(cov[k].Hi)
		}
		if !dead && lo <= iv.Hi {
			dst = append(dst, Interval{Lo: lo, Hi: iv.Hi})
		}
	}
	return dst
}

// Within appends to dst, in order, the pieces of each interval of xs that s
// covers, by the same merge as Without. Cuts of one interval that touch would
// have to merge; the spans of s are separated by uncovered ticks, so cuts
// never touch and the loop needs no fuse check. periodic.SetDiff and
// SetIntersect run Without and Within too, on a pattern cycle's offsets
// shifted onto ticks.
func (s Set) Within(dst, xs []Interval) []Interval {
	cov := s.ivs
	j := 0
	for i, iv := range xs {
		if i > 0 && iv.Lo < xs[i-1].Lo {
			j = 0
		}
		for j < len(cov) && cov[j].Hi < iv.Lo {
			j++
		}
		for k := j; k < len(cov) && cov[k].Lo <= iv.Hi; k++ {
			cut := iv
			if cov[k].Lo > cut.Lo {
				cut.Lo = cov[k].Lo
			}
			if cov[k].Hi < cut.Hi {
				cut.Hi = cov[k].Hi
			}
			if cut.Lo <= cut.Hi {
				dst = append(dst, cut)
			}
		}
	}
	return dst
}

// Union returns the point-set union (the calendar "+" operator).
func (s Set) Union(other Set) Set { return sortOwned(append(slices.Clip(s.ivs), other.ivs...)) }

// Intersect returns the point-set intersection (the calendar "intersects"
// operator).
func (s Set) Intersect(other Set) Set {
	return Set{ivs: other.Within(make([]Interval, 0, len(s.ivs)), s.ivs)}
}

// Diff returns the point-set difference s minus other (the calendar "-"
// operator).
func (s Set) Diff(other Set) Set {
	return Set{ivs: other.Without(make([]Interval, 0, len(s.ivs)), s.ivs)}
}

// Equal reports whether two sets cover exactly the same ticks.
func (s Set) Equal(other Set) bool {
	if len(s.ivs) != len(other.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != other.ivs[i] {
			return false
		}
	}
	return true
}

// Hull returns the smallest single interval covering the set.
func (s Set) Hull() (Interval, bool) {
	if s.Empty() {
		return Interval{}, false
	}
	return Interval{Lo: s.ivs[0].Lo, Hi: s.ivs[len(s.ivs)-1].Hi}, true
}

// String renders the set in the paper's {(l,u),...} notation.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, iv := range s.ivs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(iv.String())
	}
	b.WriteByte('}')
	return b.String()
}
