// algebra.go is the symbolic pattern calculus: calendar operators evaluated
// directly on Patterns, with no materialized interval list anywhere.
//
// Following Bettini & Mascetti, every operator of the calendar language that
// is window-independent — union, difference, point-set intersection, and the
// during/overlaps/meets foreach groupings with their per-group selections —
// maps periodic element lists to periodic element lists, computable over one
// lcm cycle of the operands. The functions here replicate the exact
// element-list semantics of the materialized operators in
// internal/core/calendar (duplicates, trimming, ordering), so that expanding
// the symbolic result over any window equals materializing the expression
// over that window, away from generation-edge effects.
//
// Empty sets. A Pattern cannot represent the empty list (New requires a
// span), so the calculus widens the domain: a nil *Pattern is the provably
// empty element list. Every function accepts and may return nil. The second
// return value reports whether the operands were symbolically combinable at
// all — ok=false means "fall back to materialization", never "empty".
//
// Canonical form. Canonical reduces a pattern to the unique minimal
// representation of its element list (smallest period and span count, anchor
// at the least valid rotation, phase reduced into [0, period)), so that
// structural Equal on canonical forms decides semantic list equality — the
// foundation of the CV011/CV013 equivalence diagnostics and fleet-wide rule
// dedup.
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
	out, L, ok := diffCycle(p, q)
	if !ok {
		return nil, false
	}
	if len(out) == 0 {
		return nil, true // provably empty: q covers every element of p
	}
	d, err := New(L, p.phase, out)
	if err != nil {
		return nil, false
	}
	return compacted(d, true)
}

// SetIntersect is the calendar "intersects" operator over symbolic element
// lists: the pieces of each element of p covered by q's point set, adjacent
// cuts of one element fusing — exactly calendar.Intersect. A nil result with
// ok=true proves the intersection empty.
func SetIntersect(p, q *Pattern) (*Pattern, bool) {
	if p == nil || q == nil {
		return nil, true
	}
	L, ok := setopCycle(p, q)
	if !ok {
		return nil, false
	}
	a := p.rephased(p.phase, L) // anchored at its own phase: no splits
	cov := normalizeSpans(q.rephased(p.phase, L))
	var out []Span
	j := 0
	for _, iv := range a {
		for j < len(cov) && cov[j].Hi < iv.Lo {
			j++
		}
		for k := j; k < len(cov) && cov[k].Lo <= iv.Hi; k++ {
			lo, hi := iv.Lo, iv.Hi
			if cov[k].Lo > lo {
				lo = cov[k].Lo
			}
			if cov[k].Hi < hi {
				hi = cov[k].Hi
			}
			if lo <= hi {
				// Normalized coverage intervals are separated by uncovered
				// gaps, so cuts of one element are never adjacent and the
				// materialized operator's fuse step has nothing to do.
				out = append(out, Span{Lo: lo, Hi: hi})
			}
		}
	}
	if len(out) == 0 {
		return nil, true
	}
	r, err := New(L, p.phase, out)
	if err != nil {
		return nil, false
	}
	return compacted(r, true)
}

// The cut loops of SetIntersect and diffCycle are interval.Set.Within and
// Without in offset space, kept as separate copies on purpose: 0-based offsets
// step by ±1 where ticks skip 0, and the tick kernels are the hottest loop of
// serve_wide — not the place for a parameterised successor.

// diffCycle computes the span list of p − q over one common cycle anchored at
// p's phase. ok=false means no compact common cycle; an empty span list with
// ok=true means the difference is provably empty.
func diffCycle(p, q *Pattern) (out []Span, L int64, ok bool) {
	L, ok = setopCycle(p, q)
	if !ok {
		return nil, 0, false
	}
	a := p.rephased(p.phase, L) // anchored at its own phase: no splits
	cov := normalizeSpans(q.rephased(p.phase, L))
	j := 0
	for _, iv := range a {
		for j < len(cov) && cov[j].Hi < iv.Lo {
			j++
		}
		lo, dead := iv.Lo, false
		for k := j; k < len(cov) && cov[k].Lo <= iv.Hi; k++ {
			if cov[k].Lo > lo {
				out = append(out, Span{Lo: lo, Hi: cov[k].Lo - 1})
			}
			if cov[k].Hi >= iv.Hi {
				dead = true
				break
			}
			lo = cov[k].Hi + 1
		}
		if !dead && lo <= iv.Hi {
			out = append(out, Span{Lo: lo, Hi: iv.Hi})
		}
	}
	return out, L, true
}

// A groupRun is one group of the symbolic order-2 foreach value: the
// y-element [a, b] (absolute offsets) and the contiguous x-element index run
// [first, last] related to it under the listop (last < first means an empty
// group). The run is exact because both span bounds are monotone in the
// element index, so each listop's member set is an index interval — the same
// contiguous run the materialized sweep kernels visit.
type groupRun struct {
	a, b        int64
	first, last int64
}

func (r groupRun) size() int64 {
	if r.last < r.first {
		return 0
	}
	return r.last - r.first + 1
}

// member returns the i-th member of the group (trimmed to the group's
// element when strict, exactly as the materialized strict foreach trims).
// Every qualifying element intersects [a, b] — during is contained, meets
// touches at a — so the trim is never empty.
func (r groupRun) member(x *Pattern, i int64, strict bool) Span {
	lo, hi := x.element(r.first + i)
	if strict {
		if lo < r.a {
			lo = r.a
		}
		if hi > r.b {
			hi = r.b
		}
	}
	return Span{Lo: lo, Hi: hi}
}

// foreachRuns computes, for each element of y over one common cycle, the run
// of x elements related to it under op — the symbolic form of the order-2
// foreach value, holding index arithmetic instead of materialized members.
// Only the window-independent listops (during, overlaps, meets) qualify;
// `<` and `<=` collect a prefix of the whole window and have no symbolic
// form.
func foreachRuns(x, y *Pattern, op interval.ListOp) (runs []groupRun, L int64, ok bool) {
	switch op {
	case interval.During, interval.Overlaps, interval.Meets:
	default:
		return nil, 0, false
	}
	L = lcm(x.period, y.period, 1<<40)
	if L == 0 {
		return nil, 0, false
	}
	nY := L / y.period * int64(len(y.spans))
	if nY > setopMaxSpans {
		return nil, 0, false
	}
	runs = make([]groupRun, 0, nY)
	for qy := int64(0); qy < nY; qy++ {
		a, b := y.element(qy)
		r := groupRun{a: a, b: b}
		switch op {
		case interval.During:
			r.first, r.last = x.firstWithLoGE(a), x.lastWithHiLE(b)
		case interval.Overlaps:
			r.first, r.last = x.firstWithHiGE(a), x.lastWithLoLE(b)
		case interval.Meets:
			r.first, r.last = x.firstWithHiGE(a), x.firstWithHiGE(a+1)-1
		}
		runs = append(runs, r)
	}
	return runs, L, true
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
// exactly as in the materialized flatten.
func ForeachFlat(x, y *Pattern, op interval.ListOp, strict bool) (*Pattern, bool) {
	if x == nil || y == nil {
		return nil, true
	}
	runs, L, ok := foreachRuns(x, y, op)
	if !ok {
		return nil, false
	}
	total := int64(0)
	for _, r := range runs {
		if total += r.size(); total > setopMaxSpans {
			return nil, false
		}
	}
	all := make([]Span, 0, total)
	for _, r := range runs {
		for i := int64(0); i < r.size(); i++ {
			all = append(all, r.member(x, i, strict))
		}
	}
	return compacted(patternFromCycle(all, L))
}

// ForeachSelect is the flattened value of a per-group selection
// [pred]/(x : op : y): pick maps each group's member count to the selected
// 0-based member indices, in predicate order (calendar.Selection.Indices).
// Empty groups select nothing, matching the paper's silent drop of groups
// with too few elements.
func ForeachSelect(x, y *Pattern, op interval.ListOp, strict bool, pick func(n int) []int) (*Pattern, bool) {
	if x == nil || y == nil {
		return nil, true
	}
	runs, L, ok := foreachRuns(x, y, op)
	if !ok {
		return nil, false
	}
	var all []Span
	for _, r := range runs {
		n := r.size()
		if n > setopMaxSpans {
			return nil, false
		}
		for _, i := range pick(int(n)) {
			if i >= 0 && int64(i) < n {
				all = append(all, r.member(x, int64(i), strict))
			}
			if int64(len(all)) > setopMaxSpans {
				return nil, false
			}
		}
	}
	return compacted(patternFromCycle(all, L))
}

// ForeachSelectEnd is the flattened value of an end-relative selection over
// a before/before-equals grouping, [ends]/(x :<: y): ends lists negative
// member offsets in predicate order (−1 the group's last member, −2 the one
// before it, …). Unlike during/overlaps/meets, the `<` and `<=` groupings
// collect an unbounded prefix of x — their flattened value is anchored to
// the evaluation window and has no symbolic form — but counting from the END
// of a group is window-independent: the k-th-from-last element before y is
// fixed index arithmetic on x's bi-infinite element sequence. The group's
// last member index is
//
//	<:  lastWithHiLE(y.Lo)                                (x.Hi ≤ y.Lo)
//	<=: min(lastWithLoLE(y.Lo), lastWithHiLE(y.Hi))       (x.Lo ≤ y.Lo ∧ x.Hi ≤ y.Hi)
//
// exact for any pattern because both bound sequences are monotone in the
// element index. Strict trims clamp each selected member to its y exactly as
// the materialized kernels do (keeping the member untrimmed when it does not
// intersect y). Selections whose members come out unordered — e.g. [-1,-2],
// or offsets interleaving across adjacent groups — fail pattern construction
// and report ok=false, falling back to materialization.
func ForeachSelectEnd(x, y *Pattern, op interval.ListOp, strict bool, ends []int) (*Pattern, bool) {
	if op != interval.Before && op != interval.BeforeEquals {
		return nil, false
	}
	for _, o := range ends {
		if o >= 0 {
			return nil, false
		}
	}
	if x == nil || y == nil || len(ends) == 0 {
		return nil, true
	}
	L := lcm(x.period, y.period, 1<<40)
	if L == 0 {
		return nil, false
	}
	nY := L / y.period * int64(len(y.spans))
	if nY > setopMaxSpans || nY*int64(len(ends)) > setopMaxSpans {
		return nil, false
	}
	all := make([]Span, 0, nY*int64(len(ends)))
	for qy := int64(0); qy < nY; qy++ {
		a, b := y.element(qy)
		var last int64
		if op == interval.Before {
			last = x.lastWithHiLE(a)
		} else {
			last = x.lastWithLoLE(a)
			if lhi := x.lastWithHiLE(b); lhi < last {
				last = lhi
			}
		}
		for _, o := range ends {
			lo, hi := x.element(last + 1 + int64(o))
			if strict {
				clo, chi := lo, hi
				if clo < a {
					clo = a
				}
				if chi > b {
					chi = b
				}
				if clo <= chi {
					lo, hi = clo, chi
				}
			}
			all = append(all, Span{Lo: lo, Hi: hi})
		}
	}
	return compacted(patternFromCycle(all, L))
}

// ForeachCards returns the exact minimum and maximum group cardinality of the
// foreach grouping {x : op : y} across one full common cycle — every group
// the infinite grouping ever produces. A selection index beyond max can
// provably never select anything.
func ForeachCards(x, y *Pattern, op interval.ListOp) (min, max int, ok bool) {
	if x == nil || y == nil {
		return 0, 0, false
	}
	runs, _, ok := foreachRuns(x, y, op)
	if !ok || len(runs) == 0 {
		return 0, 0, false
	}
	min, max = int(runs[0].size()), int(runs[0].size())
	for _, r := range runs[1:] {
		if n := int(r.size()); n < min {
			min = n
		} else if n > max {
			max = n
		}
	}
	return min, max, true
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
// element list: the smallest period and spans-per-cycle, the anchor rotated
// to the least valid candidate, and the phase reduced into [0, period).
// Canonical preserves the element list exactly, so Equal on canonical forms
// implies semantic list equality; the converse holds except for the rare
// cycles whose minimal rotation is not expressible under New's invariants,
// where a sound non-minimal form is returned. Canonical of nil is nil.
func (p *Pattern) Canonical() *Pattern {
	if p == nil {
		return nil
	}
	// Re-anchor so the first span starts the cycle, absorbing the shift into
	// the phase. This is list-preserving: element q is unchanged.
	period := p.period
	phase := p.phase + p.spans[0].Lo
	spans := make([]Span, len(p.spans))
	for i, s := range p.spans {
		spans[i] = Span{Lo: s.Lo - p.spans[0].Lo, Hi: s.Hi - p.spans[0].Lo}
	}
	// Minimal period: the self-maps of an infinite periodic list form a cyclic
	// group, so the minimal representation's span count divides ours and its
	// period is the matching fraction. Take the smallest divisor under which
	// the cycle is self-similar (and still a valid pattern).
	c := len(spans)
	for cp := 1; cp < c; cp++ {
		if c%cp != 0 || period*int64(cp)%int64(c) != 0 {
			continue
		}
		shift := period * int64(cp) / int64(c)
		similar := true
		for i := 0; i+cp < c; i++ {
			if spans[i+cp].Lo != spans[i].Lo+shift || spans[i+cp].Hi != spans[i].Hi+shift {
				similar = false
				break
			}
		}
		if !similar {
			continue
		}
		if _, err := New(shift, phase, spans[:cp]); err != nil {
			continue
		}
		spans, period = spans[:cp:cp], shift
		break
	}
	// Least rotation: every span start is a candidate cycle anchor; among the
	// valid rotations pick the least (reduced phase, then span sequence) —
	// a deterministic function of the element list alone. The scan is
	// quadratic in the span count, so huge cycles keep the (still sound,
	// possibly non-minimal) unrotated form.
	best, _ := New(period, floorMod(phase, period), spans)
	if len(spans) > maxRotationSpans {
		return best
	}
	for r := 1; r < len(spans); r++ {
		rot := make([]Span, len(spans))
		for i := range spans {
			j := r + i
			wrap := int64(0)
			if j >= len(spans) {
				j -= len(spans)
				wrap = period
			}
			rot[i] = Span{Lo: spans[j].Lo + wrap - spans[r].Lo, Hi: spans[j].Hi + wrap - spans[r].Lo}
		}
		cand, err := New(period, floorMod(phase+spans[r].Lo, period), rot)
		if err != nil {
			continue
		}
		if candLess(cand, best) {
			best = cand
		}
	}
	return best
}

// maxRotationSpans bounds Canonical's quadratic least-rotation scan.
const maxRotationSpans = 1 << 12

// candLess orders canonicalization candidates by (phase, span sequence).
func candLess(a, b *Pattern) bool {
	if a.phase != b.phase {
		return a.phase < b.phase
	}
	for i := range a.spans {
		if a.spans[i].Lo != b.spans[i].Lo {
			return a.spans[i].Lo < b.spans[i].Lo
		}
		if a.spans[i].Hi != b.spans[i].Hi {
			return a.spans[i].Hi < b.spans[i].Hi
		}
	}
	return false
}

// SameList reports whether two possibly-empty symbolic element lists are
// semantically equal — they expand to the same elements over every window.
func SameList(p, q *Pattern) bool {
	if p == nil || q == nil {
		return p == nil && q == nil
	}
	return p.Canonical().Equal(q.Canonical())
}
