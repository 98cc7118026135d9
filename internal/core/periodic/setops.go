package periodic

import (
	"sort"
)

// Pattern set operations merge two patterns over the least common multiple
// of their periods: the result repeats with period lcm(p, q), and one lcm
// cycle holds p.spans·(L/p.period) + q.spans·(L/q.period) candidate spans.
// Operations fail (ok = false) — and callers fall back to materialized
// lists — when the lcm cycle would be unreasonably large, or when an
// operand's spans reach past its cycle end (overlapping boundary elements
// have no clean single-cycle normal form).
// setopMaxSpans bounds the candidate spans enumerated over one common cycle.
// It is an intermediate budget: results are canonicalized and re-checked
// against the smaller resultMaxSpans, so a Gregorian-cycle operand (146097
// days) fits here while composed results stay compact.
const setopMaxSpans = 1 << 18

// setopCycle computes the common cycle length for a set operation, or
// ok = false when the operands have no compact common cycle.
func setopCycle(p, q *Pattern) (int64, bool) {
	if !p.cycleContained() || !q.cycleContained() {
		return 0, false
	}
	L := lcm(p.period, q.period, 1<<40)
	if L == 0 {
		return 0, false
	}
	if L/p.period*int64(len(p.spans))+L/q.period*int64(len(q.spans)) > setopMaxSpans {
		return 0, false
	}
	return L, true
}

// cycleContained reports whether every span ends inside its own cycle, the
// precondition for re-phasing a pattern onto another anchor.
func (p *Pattern) cycleContained() bool {
	return p.spans[len(p.spans)-1].Hi < p.period
}

// lcm returns the least common multiple, or 0 when it exceeds limit.
func lcm(a, b, limit int64) int64 {
	g := gcd(a, b)
	l := a / g
	if l > limit/b {
		return 0
	}
	return l * b
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// rephased lists p's spans over one cycle of length L anchored at absolute
// offset anchor, sorted by (Lo, Hi). L must be a multiple of p.period and p
// cycle-contained. A span that straddles the anchored cycle's end is split
// into a tail piece and a wrapped head piece — sound for point-set coverage
// (SetDiff, SetIntersect) but not for element lists (SetUnion), whose anchors
// are chosen via straddles so no split ever occurs.
func (p *Pattern) rephased(anchor, L int64) []Span {
	reps := L / p.period
	base := floorMod(p.phase-anchor, p.period)
	out := make([]Span, 0, int(reps)*len(p.spans)+1)
	for r := int64(0); r < reps; r++ {
		shift := base + r*p.period
		for _, s := range p.spans {
			lo, hi := shift+s.Lo, shift+s.Hi
			switch {
			case hi < L:
				out = append(out, Span{Lo: lo, Hi: hi})
			case lo < L:
				out = append(out, Span{Lo: lo, Hi: L - 1}, Span{Lo: 0, Hi: hi - L})
			default:
				out = append(out, Span{Lo: lo - L, Hi: hi - L})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lo != out[j].Lo {
			return out[i].Lo < out[j].Lo
		}
		return out[i].Hi < out[j].Hi
	})
	return out
}

// unionAnchor finds an anchor at which no element of either operand straddles
// the merged cycle boundary (straddling elements would have to be split, which
// is unsound for element lists). Candidates are every element start of both
// patterns plus the point just past every element end — one of these works
// whenever any anchor does, because a boundary that no element straddles is
// either uncovered (so some element end precedes it) or sits exactly at an
// element start.
func unionAnchor(p, q *Pattern, L int64) (int64, bool) {
	var cands []int64
	for _, s := range p.spans {
		cands = append(cands, p.phase+s.Lo, p.phase+s.Hi+1)
	}
	for _, s := range q.spans {
		cands = append(cands, q.phase+s.Lo, q.phase+s.Hi+1)
	}
	for _, a := range cands {
		if !straddles(p, a) && !straddles(q, a) {
			return a, true
		}
	}
	return 0, false
}

// straddles reports whether some element of p contains both offsets a-1 and a
// — i.e. crosses the cycle boundary of a merged cycle anchored at a. (Element
// copies repeat with p's period, which divides any merged cycle length, so
// the check is independent of L.)
func straddles(p *Pattern, a int64) bool {
	for _, s := range p.spans {
		if r := floorMod(a-p.phase-s.Lo, p.period); r >= 1 && r <= s.Hi-s.Lo {
			return true
		}
	}
	return false
}

// normalizeSpans sorts and merges overlapping or adjacent spans in place.
func normalizeSpans(spans []Span) []Span {
	if len(spans) == 0 {
		return spans
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo < spans[j].Lo })
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.Lo <= last.Hi+1 {
			if s.Hi > last.Hi {
				last.Hi = s.Hi
			}
			continue
		}
		out = append(out, s)
	}
	return out
}
