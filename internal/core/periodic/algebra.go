// algebra.go is the symbolic pattern calculus: calendar operators evaluated
// directly on Patterns, with no materialized interval list anywhere.
//
// Following Bettini & Mascetti, every operator of the calendar language that
// is window-independent — union, difference, point-set intersection, the
// during/overlaps/meets foreach groupings with their per-group selections,
// and end-relative selections over before/before-equals groupings — maps
// periodic element lists to periodic element lists, computable over one lcm
// cycle of the operands. One group walk (foreachRuns) serves every foreach
// lowering, and difference and intersection cut with interval.Set's
// Without/Within, the kernels the materialized operators run. The functions
// here replicate the exact element-list semantics of the materialized
// operators in internal/core/calendar (duplicates, trimming, ordering), so
// that expanding the symbolic result over any window equals materializing the
// expression over that window, away from generation-edge effects.
//
// Empty sets. A Pattern cannot represent the empty list (New requires a
// span), so the calculus widens the domain: a nil *Pattern is the provably
// empty element list. Every function accepts and may return nil. The second
// return value reports whether the operands were symbolically combinable at
// all — ok=false means "fall back to materialization", never "empty".
//
// Canonical form. Canonical reduces a pattern to the unique minimal
// representation of its element list (smallest period and span count, anchor
// at the valid rotation of least phase, phase reduced into [0, period)) in
// one linear pass, so that structural Equal on canonical forms decides
// semantic list equality — the foundation of the CV011/CV013 equivalence
// diagnostics and fleet-wide rule dedup.
package periodic

import (
	"calsys/internal/core/interval"
)

// resultMaxSpans bounds the spans of any pattern the calculus returns, after
// canonicalization; larger element lists fall back to materialization so
// composed operations stay cheap.
const resultMaxSpans = 1 << 16

// compacted canonicalizes a calculus result and enforces the result budget.
// Canonicalization is what makes cycle-heavy compositions viable: the
// flattened "DAYS during MONTHS" enumerates 146097 spans over one Gregorian
// cycle but canonicalizes to the single-span DAYS pattern.
func compacted(p *Pattern, ok bool) (*Pattern, bool) {
	if !ok || p == nil {
		return p, ok
	}
	c := p.Canonical()
	if int64(len(c.spans)) > resultMaxSpans {
		return nil, false
	}
	return c, true
}

// firstWithLoGE returns the smallest element index whose lower offset is ≥ x.
func (p *Pattern) firstWithLoGE(x int64) int64 { return p.lastWithLoLE(x-1) + 1 }

// lastWithHiLE returns the largest element index whose upper offset is ≤ x.
func (p *Pattern) lastWithHiLE(x int64) int64 { return p.firstWithHiGE(x+1) - 1 }

// SetUnion is the calendar "+" over possibly-empty symbolic element lists:
// the merged ordered elements of both, exact duplicates kept once — matching
// calendar.Union on any common expansion window. ok=false means the caller
// must fall back to materialization: the operands have no compact common
// cycle, an element of each phase-alignment candidate would straddle the
// merged cycle boundary, or the merged list is not expressible as a pattern
// (upper bounds must stay monotone across the merged cycle).
func SetUnion(p, q *Pattern) (*Pattern, bool) {
	if p == nil {
		return q, true
	}
	if q == nil {
		return p, true
	}
	L, ok := setopCycle(p, q)
	if !ok {
		return nil, false
	}
	anchor, ok := unionAnchor(p, q, L)
	if !ok {
		return nil, false
	}
	a := p.rephased(anchor, L)
	b := q.rephased(anchor, L)
	merged := make([]Span, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var s Span
		switch {
		case i >= len(a):
			s, j = b[j], j+1
		case j >= len(b):
			s, i = a[i], i+1
		case a[i] == b[j]:
			s, i, j = a[i], i+1, j+1
		case a[i].Lo < b[j].Lo || (a[i].Lo == b[j].Lo && a[i].Hi < b[j].Hi):
			s, i = a[i], i+1
		default:
			s, j = b[j], j+1
		}
		if n := len(merged); n > 0 && merged[n-1] == s {
			continue
		}
		merged = append(merged, s)
	}
	u, err := New(L, anchor, merged)
	if err != nil {
		return nil, false
	}
	return compacted(u, true)
}

// SetDiff is the calendar "-" over symbolic element lists: each element of p
// with q's covered points removed, split where necessary, surviving pieces
// staying separate elements. The subtraction uses q's full periodic coverage,
// so it matches calendar.Diff on materialized operands only when q's
// materialization window covers every q element near p's. A nil result with
// ok=true is a proof that the difference is empty everywhere on the timeline.
func SetDiff(p, q *Pattern) (*Pattern, bool) {
	if p == nil {
		return nil, true
	}
	if q == nil {
		return p, true
	}
	return cut(p, q, interval.Set.Without)
}

// SetIntersect is the calendar "intersects" operator over symbolic element
// lists: the pieces of each element of p covered by q's point set, adjacent
// cuts of one element fusing — exactly calendar.Intersect. A nil result with
// ok=true proves the intersection empty.
func SetIntersect(p, q *Pattern) (*Pattern, bool) {
	if p == nil || q == nil {
		return nil, true
	}
	return cut(p, q, interval.Set.Within)
}

// cut runs one of interval.Set's coverage kernels — Without or Within, the
// cut loops calendar.Diff and calendar.Intersect run — on p's elements
// against q's point set, over one common cycle anchored at p's phase. The
// kernels step in the paper's no-zero ticks. Every offset of the anchored
// cycle is ≥ 0, and on ticks ≥ 1 the no-zero successor is a plain +1, so
// shifting the cycle by +1 into ticks and back is exact. ok=false means no
// compact common cycle; nil with ok=true proves the result empty.
func cut(p, q *Pattern, kernel func(interval.Set, []interval.Interval, []interval.Interval) []interval.Interval) (*Pattern, bool) {
	L, ok := setopCycle(p, q)
	if !ok {
		return nil, false
	}
	// p anchored at its own phase has no splits; q's rephased spans come
	// sorted, and SortedSet fuses the ones that overlap or touch.
	cov := interval.SortedSet(shifted(q.rephased(p.phase, L)))
	out := kernel(cov, nil, shifted(p.rephased(p.phase, L)))
	if len(out) == 0 {
		return nil, true
	}
	spans := make([]Span, len(out))
	for i, iv := range out {
		spans[i] = Span{Lo: iv.Lo - 1, Hi: iv.Hi - 1}
	}
	r, err := New(L, p.phase, spans)
	if err != nil {
		return nil, false
	}
	return compacted(r, true)
}

// shifted moves cycle offsets, all ≥ 0, onto ticks by +1.
func shifted(spans []Span) []interval.Interval {
	out := make([]interval.Interval, len(spans))
	for i, s := range spans {
		out[i] = interval.Interval{Lo: s.Lo + 1, Hi: s.Hi + 1}
	}
	return out
}

// A grouping is the symbolic order-2 foreach value {x op y} over one common
// cycle of length L: n groups, one per y element, each a contiguous run of x
// element indices computed on demand. It is the one group walk behind every
// foreach lowering.
type grouping struct {
	x, y *Pattern
	op   interval.ListOp
	L, n int64
}

// foreachRuns returns the grouping {x op y}, or ok=false when the operands
// have no compact common cycle.
func foreachRuns(x, y *Pattern, op interval.ListOp) (g grouping, ok bool) {
	L := lcm(x.period, y.period, 1<<40)
	if L == 0 || !op.Valid() {
		return g, false
	}
	n := L / y.period * int64(len(y.spans))
	return grouping{x: x, y: y, op: op, L: L, n: n}, n <= setopMaxSpans
}

// group returns group qy: its y element [a, b] (absolute offsets) and the
// run of x elements related to it (see run).
func (g grouping) group(qy int64) (a, b, first, n int64) {
	a, b = g.y.element(qy)
	first, n = g.x.run(a, b, g.op)
	return a, b, first, n
}

// run returns the run of n elements from index first related to the element
// [a, b] (absolute offsets) under the listop. The run is exact because both
// span bounds are monotone in the element index, so each listop's member set
// is an index interval — the run the materialized sweep kernels visit. A
// `<`/`<=` group collects an unbounded prefix (n = −1); only its end is
// window-independent, and first is the index just past its last member:
//
//	<:  lastWithHiLE(a)                                (x.Hi ≤ a)
//	<=: min(lastWithLoLE(a), lastWithHiLE(b))          (x.Lo ≤ a ∧ x.Hi ≤ b)
func (p *Pattern) run(a, b int64, op interval.ListOp) (first, n int64) {
	last := int64(0)
	switch op {
	case interval.During:
		first, last = p.firstWithLoGE(a), p.lastWithHiLE(b)
	case interval.Overlaps:
		first, last = p.firstWithHiGE(a), p.lastWithLoLE(b)
	case interval.Meets:
		first, last = p.firstWithHiGE(a), p.firstWithHiGE(a+1)-1
	case interval.Before:
		return p.lastWithHiLE(a) + 1, -1
	default: // interval.BeforeEquals
		return min(p.lastWithLoLE(a), p.lastWithHiLE(b)) + 1, -1
	}
	return first, max(last-first+1, 0)
}

// Points reports whether every element is a single tick. The answer is
// cached at construction.
func (p *Pattern) Points() bool { return p.points }

func (p *Pattern) computePoints() bool {
	for _, s := range p.spans {
		if s.Lo != s.Hi {
			return false
		}
	}
	return true
}

// patternFromCycle builds the pattern denoting the infinite periodic list
// whose cycle-c elements are the given absolute spans shifted by c·L. When
// the listed cycle stretches a hair past one period — a relaxed overlaps
// grouping repeats its boundary-straddling member in the last group of one
// cycle and the first group of the next — the anchor is rotated forward so
// the cycle fits, which relabels members across the cycle seam without
// changing the list. ok=false when no rotation yields a valid pattern; nil
// with ok=true when the list is empty.
func patternFromCycle(spans []Span, L int64) (*Pattern, bool) {
	if len(spans) == 0 {
		return nil, true
	}
	n := len(spans)
	k := 0
	for k < n && spans[n-1].Lo >= spans[k].Lo+L {
		k++
	}
	if k == n {
		return nil, false
	}
	rot := spans
	if k > 0 {
		rot = make([]Span, 0, n)
		rot = append(rot, spans[k:]...)
		for _, s := range spans[:k] {
			rot = append(rot, Span{Lo: s.Lo + L, Hi: s.Hi + L})
		}
	}
	anchor := rot[0].Lo
	rel := make([]Span, n)
	for i, s := range rot {
		rel[i] = Span{Lo: s.Lo - anchor, Hi: s.Hi - anchor}
	}
	p, err := New(L, anchor, rel)
	if err != nil {
		return nil, false
	}
	return p, true
}

// ForeachFlat is the flattened value of the foreach grouping {x : op : y}
// (or relaxed {x . op . y}): the concatenated per-group member lists, in
// group order — what the executor's Flatten produces from the order-2 value.
// Elements related to two groups (overlaps straddlers) appear once per group,
// exactly as in the materialized flatten. A `<`/`<=` grouping has no
// symbolic flatten: its groups start at the window's edge.
func ForeachFlat(x, y *Pattern, op interval.ListOp, strict bool) (*Pattern, bool) {
	return ForeachSelect(x, y, op, strict, every)
}

// every is the pick of a flattened grouping: every member in order; an
// unbounded prefix gets position 0, which ForeachSelect refuses.
func every(n int) []int {
	all := make([]int, max(n, 1))
	for i := range all {
		all[i] = i
	}
	return all
}

// ForeachSelect is the flattened value of a per-group selection
// [pred]/(x : op : y) over any of the five listops. pick maps a group's
// member count, or −1 for the unbounded prefix of a `<`/`<=` group, to the
// selected member positions in predicate order: 0-based from the front, or
// negative from the end (−1 the last member). It is asked once per distinct
// count. Positions a group does not have select nothing, matching the
// paper's silent drop of groups with too few elements. Counting from the end
// of an unbounded prefix is fixed index arithmetic on x; counting from its
// front needs a window, so an unbounded group accepts only negative
// positions and any other reports ok=false. Strict members are trimmed to
// their group's element where the two meet, exactly as the materialized
// strict foreach trims; every during/overlaps/meets member meets it. A
// selection whose members come out unordered (e.g. [-1,-2]) has no pattern
// form and reports ok=false.
func ForeachSelect(x, y *Pattern, op interval.ListOp, strict bool, pick func(n int) []int) (*Pattern, bool) {
	if x == nil || y == nil {
		return nil, true
	}
	g, ok := foreachRuns(x, y, op)
	if !ok {
		return nil, false
	}
	var all []Span
	offs := make(map[int64][]int64, 4) // a count's picks, as offsets from first
	for qy := int64(0); qy < g.n; qy++ {
		a, b, first, n := g.group(qy)
		o, seen := offs[n]
		if !seen {
			if o, ok = picked(pick, n); !ok {
				return nil, false
			}
			offs[n] = o
		}
		if all == nil { // sized as if every group picked as many
			all = make([]Span, 0, min(g.n*int64(len(o)), setopMaxSpans+1))
		}
		for _, off := range o {
			lo, hi := x.element(first + off)
			if strict && lo <= b && hi >= a {
				lo, hi = max(lo, a), min(hi, b)
			}
			all = append(all, Span{Lo: lo, Hi: hi})
		}
		if len(all) > setopMaxSpans {
			return nil, false
		}
	}
	return compacted(patternFromCycle(all, g.L))
}

// picked resolves pick's positions for a group of n members (−1: an
// unbounded prefix) to offsets from its first index, dropping positions the
// group does not have; ok=false when an unbounded prefix is asked for a
// position from its front.
func picked(pick func(int) []int, n int64) (offs []int64, ok bool) {
	if n > setopMaxSpans {
		return nil, false
	}
	pos := pick(int(n))
	offs = make([]int64, 0, len(pos))
	for _, i := range pos {
		o := int64(i)
		if n < 0 && o >= 0 {
			return nil, false
		} else if o < 0 && n >= 0 {
			o += n
		}
		if n < 0 || (o >= 0 && o < n) {
			offs = append(offs, o)
		}
	}
	return offs, true
}

// ForeachCards returns the exact minimum and maximum group cardinality of the
// foreach grouping {x : op : y} across one full common cycle — every group
// the infinite grouping ever produces. A selection index beyond max can
// provably never select anything. The unbounded groups of `<` and `<=`
// report ok=false.
func ForeachCards(x, y *Pattern, op interval.ListOp) (min, max int, ok bool) {
	if x == nil || y == nil {
		return 0, 0, false
	}
	g, ok := foreachRuns(x, y, op)
	for qy := int64(0); ok && qy < g.n; qy++ {
		_, _, _, n := g.group(qy)
		switch {
		case n < 0:
			return 0, 0, false
		case qy == 0 || int(n) < min:
			min = int(n)
		}
		if int(n) > max {
			max = int(n)
		}
	}
	return min, max, ok
}

// Starts returns the point pattern of the element start offsets, duplicate
// starts kept once — the instants at which a rule over this calendar fires.
func (p *Pattern) Starts() *Pattern {
	if p == nil {
		return nil
	}
	pts := make([]Span, 0, len(p.spans))
	for _, s := range p.spans {
		pt := Span{Lo: s.Lo, Hi: s.Lo}
		if n := len(pts); n > 0 && pts[n-1] == pt {
			continue
		}
		pts = append(pts, pt)
	}
	q, err := New(p.period, p.phase, pts)
	if err != nil {
		// Point spans at sorted starts within [0, period) always validate.
		panic("periodic: Starts produced an invalid pattern: " + err.Error())
	}
	return q
}

// Canonical returns the unique minimal representation of the pattern's
// element list: the smallest period and spans-per-cycle, the anchor at the
// valid rotation with the least reduced phase, and the phase reduced into
// [0, period). Canonical preserves the element list exactly, and two patterns
// denote the same list exactly when their canonical forms are Equal. It runs
// in time linear in the span count and builds only its result; a pattern
// already canonical is returned as is. Canonical of nil is nil.
func (p *Pattern) Canonical() *Pattern {
	if p == nil {
		return nil
	}
	spans, period := p.spans, p.period
	// Minimal period: the self-maps of an infinite periodic list form a cyclic
	// group, so the minimal representation's span count divides ours and its
	// period is the matching fraction. Take the smallest divisor under which
	// the cycle is self-similar; that prefix keeps New's invariants because
	// the whole cycle does.
	c := len(spans)
	for cp := 1; cp < c; cp++ {
		if c%cp != 0 || period*int64(cp)%int64(c) != 0 {
			continue
		}
		if shift := period * int64(cp) / int64(c); selfSimilar(spans, cp, shift) {
			spans, period = spans[:cp], shift
			break
		}
	}
	// Least rotation. Anchoring the cycle at span r keeps New's invariants
	// exactly when r = 0 or spans[r-1].Lo < spans[r].Lo: an equal Lo would
	// land at offset period after the wrap. Valid anchors start elements with
	// distinct offsets modulo the period, so their reduced phases differ and
	// the least one alone decides — a function of the element list.
	best, phase := 0, floorMod(p.phase+spans[0].Lo, period)
	for r := 1; r < len(spans); r++ {
		if ph := floorMod(p.phase+spans[r].Lo, period); spans[r-1].Lo < spans[r].Lo && ph < phase {
			best, phase = r, ph
		}
	}
	base := spans[best].Lo
	if best == 0 && base == 0 && period == p.period && phase == p.phase {
		return p
	}
	rot := make([]Span, len(spans))
	for i := range rot {
		j, wrap := best+i, int64(0)
		if j >= len(spans) {
			j, wrap = j-len(spans), period
		}
		rot[i] = Span{Lo: spans[j].Lo + wrap - base, Hi: spans[j].Hi + wrap - base}
	}
	q := &Pattern{period: period, phase: phase, spans: rot}
	q.disjoint, q.points = q.computeDisjoint(), q.computePoints()
	return q
}

// selfSimilar reports whether the cycle repeats every cp spans, shifted by
// shift offsets.
func selfSimilar(spans []Span, cp int, shift int64) bool {
	for i := 0; i+cp < len(spans); i++ {
		if spans[i+cp].Lo != spans[i].Lo+shift || spans[i+cp].Hi != spans[i].Hi+shift {
			return false
		}
	}
	return true
}

// SameList reports whether two possibly-empty symbolic element lists are
// semantically equal — they expand to the same elements over every window.
func SameList(p, q *Pattern) bool {
	if p == nil || q == nil {
		return p == nil && q == nil
	}
	return p.Canonical().Equal(q.Canonical())
}
