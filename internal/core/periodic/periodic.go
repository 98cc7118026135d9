// Package periodic implements compact periodic representations of calendars.
//
// Every basic calendar of the paper (SECONDS … CENTURY, §4.1) — and many
// derived ones, such as weekly or monthly schedules — is periodic: its
// interval list is a finite set of offset spans repeated with a fixed period.
// Following Bettini & Mascetti ("Supporting Temporal Reasoning by Mapping
// Calendar Expressions to Minimal Periodic Sets"), such a calendar is stored
// as a Pattern — {period, phase, offset spans} — of constant size, from which
// any window expands in O(output) time and cardinality and index-range
// queries (IndexRange + Interval are what the planner selects through) answer
// in O(log spans) integer arithmetic, with no materialized list at all.
//
// The calendar operators on patterns are one family, the symbolic calculus of
// algebra.go: SetUnion, SetDiff, SetIntersect, ForeachFlat, ForeachSelect and
// ForeachCards, all over possibly-empty (nil) element lists and all returning
// canonical forms. setops.go holds the lcm-cycle machinery they share.
//
// All Pattern arithmetic runs in offset space (a plain zero-based signed
// count of granularity units); conversion to and from the paper's no-zero
// ticks happens at the package boundary, via chronology.TickFromOffset and
// chronology.OffsetFromTick, and inside SetDiff/SetIntersect, which shift a
// cycle's non-negative offsets by +1 onto ticks to run interval.Set's cut
// kernels.
package periodic

import (
	"fmt"
	"sort"
	"strconv"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// A Span is one interval of a pattern's cycle, in offsets relative to the
// cycle start: element i of cycle k covers absolute offsets
// [phase + k·period + Lo, phase + k·period + Hi].
type Span struct {
	Lo, Hi int64
}

// A Pattern is an infinite, bi-directionally periodic interval list: the
// spans repeated at every integer multiple of the period around the phase.
// Element q (any integer) of the list is span (q mod s) of cycle (q div s),
// where s is the span count. Patterns are immutable and safe to share.
//
// Invariants, established by New:
//
//	period ≥ 1, at least one span
//	0 ≤ span.Lo < period and span.Lo ≤ span.Hi
//	spans sorted: Lo and Hi both non-decreasing
//	last.Hi ≤ first.Hi + period (so Hi stays monotone across cycles)
//
// A span's Hi may reach past the cycle end (Hi ≥ period): the months of the
// Gregorian cycle expressed in weeks overlap at shared boundary weeks, so
// consecutive elements — and cycles — are not necessarily disjoint, exactly
// as in the materialized lists they replace.
type Pattern struct {
	period int64
	phase  int64
	spans  []Span
	// disjoint and points cache the pairwise-disjointness of the elements
	// and whether each is a single tick, computed once at construction so
	// expansion and the exception algebra never rescan the cycle.
	disjoint, points bool
}

// New validates and builds a pattern. The span slice is copied.
func New(period, phase int64, spans []Span) (*Pattern, error) {
	if period < 1 {
		return nil, fmt.Errorf("periodic: period %d must be positive", period)
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("periodic: pattern needs at least one span")
	}
	for i, s := range spans {
		if s.Lo < 0 || s.Lo >= period {
			return nil, fmt.Errorf("periodic: span %d lower offset %d outside cycle [0,%d)", i, s.Lo, period)
		}
		if s.Hi < s.Lo {
			return nil, fmt.Errorf("periodic: span %d reversed: (%d,%d)", i, s.Lo, s.Hi)
		}
		if i > 0 && (spans[i-1].Lo > s.Lo || spans[i-1].Hi > s.Hi) {
			return nil, fmt.Errorf("periodic: spans out of order at %d: (%d,%d) after (%d,%d)",
				i, s.Lo, s.Hi, spans[i-1].Lo, spans[i-1].Hi)
		}
	}
	if last := spans[len(spans)-1]; last.Hi > spans[0].Hi+period {
		return nil, fmt.Errorf("periodic: span upper bounds not monotone across cycles: last (%d,%d) vs first (%d,%d)+%d",
			last.Lo, last.Hi, spans[0].Lo, spans[0].Hi, period)
	}
	cp := make([]Span, len(spans))
	copy(cp, spans)
	p := &Pattern{period: period, phase: phase, spans: cp}
	p.disjoint, p.points = p.computeDisjoint(), p.computePoints()
	return p, nil
}

// Period returns the cycle length in offset units.
func (p *Pattern) Period() int64 { return p.period }

// Phase returns the absolute offset of the start of cycle 0.
func (p *Pattern) Phase() int64 { return p.phase }

// Spans returns the cycle's spans. The slice is shared; do not modify it.
func (p *Pattern) Spans() []Span { return p.spans }

// String renders the pattern in full, so canonical forms can be asserted as
// literals in table-driven tests and used as equivalence-class keys (CV011
// renders one per catalog definition, so it appends rather than formats).
func (p *Pattern) String() string {
	b := append(make([]byte, 0, 32+16*len(p.spans)), "period="...)
	b = strconv.AppendInt(b, p.period, 10)
	b = strconv.AppendInt(append(b, " phase="...), p.phase, 10)
	b = strconv.AppendInt(append(b, " spans="...), int64(len(p.spans)), 10)
	b = append(b, '{')
	for i, s := range p.spans {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, '('), s.Lo, 10)
		b = append(strconv.AppendInt(append(b, ','), s.Hi, 10), ')')
	}
	return string(append(b, '}'))
}

// Equal reports structural equality.
func (p *Pattern) Equal(q *Pattern) bool {
	if p == nil || q == nil {
		return p == q
	}
	if p.period != q.period || p.phase != q.phase || len(p.spans) != len(q.spans) {
		return false
	}
	for i := range p.spans {
		if p.spans[i] != q.spans[i] {
			return false
		}
	}
	return true
}

// element returns the absolute offset span of element q.
func (p *Pattern) element(q int64) (lo, hi int64) {
	s := int64(len(p.spans))
	k := floorDiv(q, s)
	i := q - k*s
	base := p.phase + k*p.period
	return base + p.spans[i].Lo, base + p.spans[i].Hi
}

// Interval returns element q as a no-zero tick interval.
func (p *Pattern) Interval(q int64) interval.Interval {
	lo, hi := p.element(q)
	return interval.Interval{Lo: chronology.TickFromOffset(lo), Hi: chronology.TickFromOffset(hi)}
}

// firstWithHiGE returns the smallest element index whose upper offset is ≥ x.
// Upper bounds are non-decreasing in the element index (a New invariant), so
// the answer is a clean lower bound.
func (p *Pattern) firstWithHiGE(x int64) int64 {
	s := int64(len(p.spans))
	// Cycle k contains a qualifying span iff its largest Hi ≥ x.
	k := ceilDiv(x-p.phase-p.spans[s-1].Hi, p.period)
	rel := x - p.phase - k*p.period
	i := sort.Search(len(p.spans), func(i int) bool { return p.spans[i].Hi >= rel })
	if i == len(p.spans) {
		// Guard against boundary rounding: fall to the next cycle's first span.
		k, i = k+1, 0
	}
	return k*s + int64(i)
}

// lastWithLoLE returns the largest element index whose lower offset is ≤ x.
func (p *Pattern) lastWithLoLE(x int64) int64 {
	s := int64(len(p.spans))
	// Cycle k contains a qualifying span iff its smallest Lo ≤ x.
	k := floorDiv(x-p.phase-p.spans[0].Lo, p.period)
	rel := x - p.phase - k*p.period
	i := sort.Search(len(p.spans), func(i int) bool { return p.spans[i].Lo > rel })
	if i == 0 {
		// Guard against boundary rounding: fall to the previous cycle's last.
		return (k-1)*s + s - 1
	}
	return k*s + int64(i-1)
}

// IndexRange returns the inclusive range of element indices overlapping the
// tick window, in O(log spans) arithmetic. ok is false when no element
// overlaps. Because Lo and Hi are both monotone in the element index, the
// range [first, last] is exactly the elements intersecting the window — the
// same contiguous run a generated materialization of the window would hold.
func (p *Pattern) IndexRange(win interval.Interval) (first, last int64, ok bool) {
	lo := chronology.OffsetFromTick(win.Lo)
	hi := chronology.OffsetFromTick(win.Hi)
	first = p.firstWithHiGE(lo)
	last = p.lastWithLoLE(hi)
	return first, last, first <= last
}

// NextAfter returns the index and start tick of the first element whose
// start lies strictly after tick t, in O(log spans) arithmetic. This is the
// next-instant kernel: "when does this calendar fire next?" answered without
// materializing any window. The tick honors the no-zero convention.
func (p *Pattern) NextAfter(t chronology.Tick) (q int64, start chronology.Tick) {
	x := chronology.OffsetFromTick(t)
	// Element starts are non-decreasing in the index (a New invariant), and
	// strictly increase across ties, so the first start > x is the element
	// right after the last with Lo ≤ x.
	q = p.lastWithLoLE(x) + 1
	lo, _ := p.element(q)
	return q, chronology.TickFromOffset(lo)
}

// Expand materializes the elements overlapping the tick window, in order, in
// O(output) time — the pattern-backed equivalent of generating the window.
func (p *Pattern) Expand(win interval.Interval) []interval.Interval {
	first, last, _ := p.IndexRange(win)
	out := make([]interval.Interval, max(last-first+1, 0))
	p.Fill(out, first)
	return out
}

// Fill writes elements first, first+1, … into dst, in order: a window's
// expansion, or one run of a walk by index.
func (p *Pattern) Fill(dst []interval.Interval, first int64) {
	if len(p.spans) == 1 {
		// Single-span cycles (every fixed-ratio granularity pair) reduce to a
		// stride: no span indexing, no cycle wrap test.
		lo0, hi0 := p.spans[0].Lo, p.spans[0].Hi
		base := p.phase + first*p.period
		for j := range dst {
			dst[j] = interval.Interval{
				Lo: chronology.TickFromOffset(base + lo0),
				Hi: chronology.TickFromOffset(base + hi0),
			}
			base += p.period
		}
		return
	}
	s := int64(len(p.spans))
	k, i := floorDiv(first, s), int(floorMod(first, s))
	base := p.phase + k*p.period
	for j := range dst {
		lo := chronology.TickFromOffset(base + p.spans[i].Lo)
		hi := lo
		if !p.points {
			hi = chronology.TickFromOffset(base + p.spans[i].Hi)
		}
		dst[j] = interval.Interval{Lo: lo, Hi: hi}
		if i++; i == len(p.spans) {
			i, base = 0, base+p.period
		}
	}
}

// Disjoint reports whether the pattern's elements are pairwise disjoint —
// within the cycle and across the cycle boundary. Expansions of a disjoint
// pattern are sorted disjoint interval lists, the shape the foreach sweep
// kernels require. The answer is cached at construction.
func (p *Pattern) Disjoint() bool { return p.disjoint }

func (p *Pattern) computeDisjoint() bool {
	for i := 1; i < len(p.spans); i++ {
		if p.spans[i].Lo <= p.spans[i-1].Hi {
			return false
		}
	}
	return p.spans[len(p.spans)-1].Hi < p.spans[0].Lo+p.period
}

// SizeBytes estimates the pattern's resident bytes: the constant-size header
// plus 16 bytes per cycle span. This is the matcache entry cost of a
// pattern-backed calendar — for a basic calendar, a few dozen bytes
// regardless of how many centuries of windows it serves.
func (p *Pattern) SizeBytes() int64 {
	const header = 48
	return header + 16*int64(len(p.spans))
}

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// floorMod is the non-negative remainder matching floorDiv.
func floorMod(a, b int64) int64 {
	return a - floorDiv(a, b)*b
}

// ceilDiv is integer division rounding toward positive infinity.
func ceilDiv(a, b int64) int64 {
	return -floorDiv(-a, b)
}
