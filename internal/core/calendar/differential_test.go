package calendar

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// naiveCal is the oracle's calendar: plain slices, one per group, and the
// paper's print form. It knows nothing of slabs or extents.
type naiveCal struct {
	groups [][]interval.Interval
	order2 bool // false: groups[0] is the element list
}

func (n naiveCal) String() string {
	var b strings.Builder
	for k, g := range n.groups {
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('{')
		for i, iv := range g {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(iv.String())
		}
		b.WriteByte('}')
	}
	if n.order2 {
		return "{" + b.String() + "}"
	}
	return b.String()
}

func (n naiveCal) card() int {
	total := 0
	for _, g := range n.groups {
		total += len(g)
	}
	return total
}

func (n naiveCal) flatten() naiveCal {
	var flat []interval.Interval
	for _, g := range n.groups {
		flat = append(flat, g...)
	}
	return naiveCal{groups: [][]interval.Interval{flat}}
}

// naiveForeachCal is §3.1 on the oracle: one group per element of ys, except
// that a one-element ys is an interval (the operator maps over c's groups and
// keeps c's order) and an empty ys yields the null calendar.
func naiveForeachCal(c naiveCal, op interval.ListOp, strict bool, ys []interval.Interval) naiveCal {
	switch {
	case len(ys) == 0:
		return naiveCal{groups: [][]interval.Interval{nil}}
	case len(ys) == 1:
		out := naiveCal{order2: c.order2}
		for _, g := range c.groups {
			out.groups = append(out.groups, naiveGroups(g, op, strict, ys)[0])
		}
		return out
	}
	return naiveCal{groups: naiveGroups(c.groups[0], op, strict, ys), order2: true}
}

// naiveIndices expands a predicate term by term, position by position: the
// definition the range arithmetic of Selection.resolve is checked against.
func naiveIndices(s Selection, ln int) []int {
	var out []int
	for _, it := range s.Items {
		switch {
		case it.Last:
			if ln > 0 {
				out = append(out, ln-1)
			}
		case it.Range:
			from, ok1 := resolvePos(it.From, ln)
			to, ok2 := resolvePos(it.To, ln)
			if !ok1 && it.From > 0 {
				continue // starts past the end
			}
			if !ok2 && it.To > 0 {
				to, ok2 = ln-1, true // clamp open-ended ranges
			}
			if !ok2 {
				continue
			}
			for i := from; i <= to; i++ {
				out = append(out, i)
			}
		default:
			if i, ok := resolvePos(it.Pos, ln); ok {
				out = append(out, i)
			}
		}
	}
	return out
}

// naiveSelectCal applies the predicate group by group; a single-index
// predicate on an order-2 calendar collapses the picks into one list.
func naiveSelectCal(s Selection, c naiveCal) naiveCal {
	out := naiveCal{order2: c.order2}
	for _, g := range c.groups {
		var picked []interval.Interval
		for _, i := range naiveIndices(s, len(g)) {
			picked = append(picked, g[i])
		}
		out.groups = append(out.groups, picked)
	}
	if c.order2 && s.Single() {
		return out.flatten()
	}
	return out
}

// checkShape holds any calendar to the laws of the one representation that
// need no oracle: String and Parse are inverses, converting to a finer
// granularity keeps every count (the order, every level, every group's
// length) and the leaf runs concatenated are Flatten.
func checkShape(t *testing.T, name string, got *Calendar) {
	t.Helper()
	back, err := Parse(got.gran, got.String())
	if err != nil || !back.Equal(got) || !got.Equal(back) {
		t.Fatalf("%s: Parse(%v) = %v, err %v", name, got, back, err)
	}
	fine, err := ConvertGran(chron1987(t), got, chronology.Second)
	if err != nil || fine.Order() != got.Order() || fine.Len() != got.Len() || len(fine.ext) != len(got.ext) {
		t.Fatalf("%s: ConvertGran(%v) = %v, err %v", name, got, fine, err)
	}
	for k := range got.ext {
		if len(fine.Group(k)) != len(got.Group(k)) {
			t.Fatalf("%s: ConvertGran(%v) = %v: group %d changed length", name, got, fine, k)
		}
	}
	for j := range got.up {
		if !slices.Equal(fine.up[j], got.up[j]) {
			t.Fatalf("%s: ConvertGran(%v) = %v: level %d changed", name, got, fine, j)
		}
	}
	var leaves []interval.Interval
	got.Leaves(func(run []interval.Interval) bool {
		leaves = append(leaves, run...)
		return true
	})
	if flat := got.Flatten(); flat.Order() != 1 || !slices.Equal(flat.ivs, leaves) {
		t.Fatalf("%s: Flatten(%v) = %v, leaves %v", name, got, flat, leaves)
	}
}

// checkColumnar runs Foreach, then Select, then Flatten on the columnar form
// and on the oracle, comparing print forms at every step. A sortedDisjoint
// flag must never be wrong, and when both operands are sorted disjoint — the
// sweep path — an order-1 result must also never miss it: a later foreach
// over that result would silently fall off the sweep.
func checkColumnar(t *testing.T, c *Calendar, op interval.ListOp, strict bool, arg *Calendar, sel Selection) {
	t.Helper()
	want := naiveCal{groups: [][]interval.Interval{c.ivs}}
	if c.Order() == 2 {
		want = naiveCal{order2: true}
		for k := 0; k < c.Len(); k++ {
			want.groups = append(want.groups, c.Group(k))
		}
	}
	swept := c.Order() == 1 && c.sortedDisjoint && arg.sortedDisjoint
	step := func(name string, got *Calendar, want naiveCal) {
		t.Helper()
		if got.String() != want.String() {
			t.Fatalf("%s diverges: c = %v, %v strict=%v, arg = %v, sel = %v\ngot  %v\nwant %v",
				name, c, op, strict, arg, sel, got, want)
		}
		is := true
		for _, g := range want.groups {
			is = is && disjointSorted(g)
		}
		if got.sortedDisjoint && !is || swept && got.Order() == 1 && is && !got.sortedDisjoint {
			t.Fatalf("%s: sortedDisjoint = %v on %v", name, got.sortedDisjoint, got)
		}
		if got.Cardinality() != want.card() || got.IsEmpty() != (want.card() == 0) {
			t.Fatalf("%s: Cardinality = %d, IsEmpty = %v on %v", name, got.Cardinality(), got.IsEmpty(), got)
		}
		checkShape(t, name, got)
	}
	diced, err := Foreach(c, op, strict, arg)
	if err != nil {
		t.Fatal(err)
	}
	want = naiveForeachCal(want, op, strict, arg.ivs)
	step("Foreach", diced, want)
	step("Flatten of Foreach", diced.Flatten(), want.flatten())

	sliced, err := Select(sel, diced)
	if err != nil {
		t.Fatal(err)
	}
	want = naiveSelectCal(sel, want)
	step("Select", sliced, want)
	step("Flatten of Select", sliced.Flatten(), want.flatten())
}

// checkOrder3 dices an order-2 calendar by a list — order 3, one order-2
// element per interval of arg — and that by the list again, order 4, and
// slices both. A single-index predicate drops the innermost level each time:
// order 4 comes back to order 1 in three selections, and every calendar on the
// way must be Equal to FromSubs of the oracle's elements, whichever operator
// laid out its slab and levels.
func checkOrder3(t *testing.T, c *Calendar, op interval.ListOp, strict bool, arg *Calendar, sel Selection) {
	t.Helper()
	base := naiveCal{order2: true}
	for k := 0; k < c.Len(); k++ {
		base.groups = append(base.groups, c.Group(k))
	}
	tree := func(elems []naiveCal) string {
		strs := make([]string, len(elems))
		for i, e := range elems {
			strs[i] = e.String()
		}
		return "{" + strings.Join(strs, ",") + "}"
	}
	// fromNaive builds the oracle's calendar through the public constructors
	// alone: a leaf per group, FromSubs per level.
	fromNaive := func(e naiveCal) *Calendar {
		if !e.order2 {
			return newLeaf(c.gran, e.groups[0], false) // picks from out-of-order leaves are out of order
		}
		leaves := make([]*Calendar, len(e.groups))
		for i, g := range e.groups {
			leaves[i] = newLeaf(c.gran, g, false)
		}
		return mustFromSubs(t, leaves)
	}
	fromElems := func(elems []naiveCal) *Calendar {
		subs := make([]*Calendar, len(elems))
		for i, e := range elems {
			subs[i] = fromNaive(e)
		}
		return mustFromSubs(t, subs)
	}
	check := func(name string, got *Calendar, order int, want string, card int, fresh *Calendar) {
		t.Helper()
		if got.Order() != order || got.String() != want || got.Cardinality() != card ||
			got.SizeBytes() < int64(card)*int64(unsafe.Sizeof(interval.Interval{})) {
			t.Fatalf("%s: c = %v, %v strict=%v, arg = %v, sel = %v\ngot  order %d, %d leaves in %d B: %v\nwant order %d, %d leaves: %v",
				name, c, op, strict, arg, sel, got.Order(), got.Cardinality(), got.SizeBytes(), got, order, card, want)
		}
		if !got.Equal(fresh) || !fresh.Equal(got) {
			t.Fatalf("%s = %v is not Equal to FromSubs of its elements %v", name, got, fresh)
		}
		checkShape(t, name, got)
	}
	card := func(elems []naiveCal) (n int) {
		for _, e := range elems {
			n += e.card()
		}
		return n
	}
	// collapse is a single-index selection one level up: each element's
	// picks, flattened by naiveSelectCal, become one group.
	collapse := func(elems []naiveCal) naiveCal {
		out := naiveCal{order2: true}
		for _, e := range elems {
			out.groups = append(out.groups, naiveSelectCal(sel, e).groups[0])
		}
		return out
	}

	diced, err := Foreach(c, op, strict, arg)
	if err != nil {
		t.Fatal(err)
	}
	elems := make([]naiveCal, len(arg.ivs))
	for i, y := range arg.ivs {
		elems[i] = naiveForeachCal(base, op, strict, []interval.Interval{y})
	}
	check("Foreach of order 2", diced, 3, tree(elems), card(elems), fromElems(elems))

	// Order 4: the order-3 result diced by the same list, and back down.
	diced4, err := Foreach(diced, op, strict, arg)
	if err != nil {
		t.Fatal(err)
	}
	elems4 := make([][]naiveCal, len(arg.ivs))
	var strs4 []string
	var subs4 []*Calendar
	card4 := 0
	for i, y := range arg.ivs {
		for _, e := range elems {
			elems4[i] = append(elems4[i], naiveForeachCal(e, op, strict, []interval.Interval{y}))
		}
		strs4, subs4, card4 = append(strs4, tree(elems4[i])), append(subs4, fromElems(elems4[i])), card4+card(elems4[i])
	}
	check("Foreach of order 3", diced4, 4, "{"+strings.Join(strs4, ",")+"}", card4, mustFromSubs(t, subs4))
	if sel.Single() {
		down := make([]naiveCal, len(elems4))
		for i := range elems4 {
			down[i] = collapse(elems4[i])
		}
		got := diced4
		for _, step := range []struct {
			name string
			want naiveCal // what one more selection leaves, at orders 2 and 1
		}{
			{"Select [k] on order 4", naiveCal{}},
			{"Select [k] twice on order 4", collapse(down)},
			{"Select [k] thrice on order 4", naiveSelectCal(sel, collapse(down))},
		} {
			if got, err = Select(sel, got); err != nil {
				t.Fatal(err)
			}
			if got.Order() == 3 {
				check(step.name, got, 3, tree(down), card(down), fromElems(down))
				continue
			}
			check(step.name, got, got.Order(), step.want.String(), step.want.card(), fromNaive(step.want))
		}
		if got.Order() != 1 {
			t.Fatalf("three single-index selections left order 4 at order %d", got.Order())
		}
	}

	sliced, err := Select(sel, diced)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Single() {
		for i := range elems {
			elems[i] = naiveSelectCal(sel, elems[i])
		}
		check("Select on order 3", sliced, 3, tree(elems), card(elems), fromElems(elems))
		return
	}
	want := collapse(elems)
	check("Select [k] on order 3", sliced, 2, want.String(), want.card(), fromNaive(want))
	for k, g := range want.groups {
		if !slices.Equal(sliced.Group(k), g) {
			t.Fatalf("Select [k] on order 3: Group(%d) = %v, want %v", k, sliced.Group(k), g)
		}
	}
	check("Flatten of Select [k] on order 3", sliced.Flatten(), 1, want.flatten().String(), want.card(), fromNaive(want.flatten()))

	again, err := Select(sel, sliced)
	if err != nil {
		t.Fatal(err)
	}
	want = naiveSelectCal(sel, want)
	check("Select [k] twice on order 3", again, 1, want.String(), want.card(), fromNaive(want))
}

func mustFromSubs(t *testing.T, subs []*Calendar) *Calendar {
	t.Helper()
	c, err := FromSubs(subs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randSelection draws every predicate shape: [k], [n], [-k], lists (with
// duplicates and descending positions), ranges (backward, clamped, reaching
// before the start), out-of-range positions.
func randSelection(rng *rand.Rand) Selection {
	pos := func() int {
		p := rng.Intn(9) + 1 // groups here hold 0..~8 elements: often out of range
		if rng.Intn(3) == 0 {
			p = -p
		}
		return p
	}
	switch rng.Intn(5) {
	case 0:
		return SelectIndex(pos())
	case 1:
		return SelectLast()
	case 2:
		return SelectRange(pos(), pos())
	}
	var s Selection
	for n := rng.Intn(4) + 2; n > 0; n-- {
		switch rng.Intn(4) {
		case 0:
			s.Items = append(s.Items, SelItem{Last: true})
		case 1:
			s.Items = append(s.Items, SelItem{Range: true, From: pos(), To: pos()})
		default:
			s.Items = append(s.Items, SelItem{Pos: pos()})
		}
	}
	return s
}

// TestColumnarMatchesNaive is the one differential test of the slab-and-
// extents kernels: random operands of every shape × the five listops ×
// strict/relaxed × every selection shape, through Foreach, Select and
// Flatten — and, on the order-2 operands, up to order 4 and back down to
// order 1 — against the paper's definitions on plain slices. Print forms are
// compared, so the §3.1 notation {{(4,10),…},{…}} is part of the oracle.
func TestColumnarMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	adjacent := func(n int) []interval.Interval {
		out := make([]interval.Interval, 0, n)
		off := int64(rng.Intn(20)) - 15 // starts below tick 1: spans cross the missing tick 0
		for i := 0; i < n; i++ {
			w := int64(rng.Intn(4))
			out = append(out, interval.Interval{Lo: chronology.TickFromOffset(off), Hi: chronology.TickFromOffset(off + w)})
			off += w + 1
		}
		return out
	}
	operand := func(n int) *Calendar {
		var ivs []interval.Interval
		switch rng.Intn(3) {
		case 0:
			ivs = randDisjointSorted(rng, n)
		case 1:
			ivs = randSortedByLo(rng, n) // overlapping
		default:
			ivs = adjacent(n)
		}
		c, err := FromIntervals(chronology.Day, ivs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for trial := 0; trial < 2000; trial++ {
		c, arg := operand(rng.Intn(14)), operand(rng.Intn(7)) // arg: empty, single-element, or a list
		switch trial % 8 {
		case 0:
			// An order-2 operand whose leaves are out of order and overlap each
			// other, diced by an interval.
			subs := []*Calendar{operand(rng.Intn(6)), operand(rng.Intn(6)), operand(0)}
			var err error
			if c, err = FromSubs(subs); err != nil {
				t.Fatal(err)
			}
			arg = operand(1)
			// The same operand diced by a list is order 3, and again order 4.
			list := operand(rng.Intn(4) + 2)
			sel := randSelection(rng)
			if trial%16 == 0 {
				sel = SelectIndex(rng.Intn(3) + 1) // collapses: every other order-3 trial
			}
			checkOrder3(t, c, allListOps[rng.Intn(len(allListOps))], rng.Intn(2) == 0, list, sel)
		case 1:
			// Far apart: every group is empty.
			arg = MustFromIntervals(chronology.Day, interval.Interval{Lo: 500, Hi: 510}, interval.Interval{Lo: 520, Hi: 530})
		case 2:
			arg = c // the self-join
		}
		for _, op := range allListOps {
			for _, strict := range []bool{false, true} {
				checkColumnar(t, c, op, strict, arg, randSelection(rng))
			}
		}
	}
}

// TestColumnarAllocBounds pins the allocation profile of the kernels on a
// 35-year DAYS-by-WEEKS grouping: none of them may grow with the group count.
func TestColumnarAllocBounds(t *testing.T) {
	ch := chronology.MustNew(chronology.DefaultEpoch)
	days, err := GenerateFull(ch, chronology.Day, chronology.Day, 1, 12784)
	if err != nil {
		t.Fatal(err)
	}
	weeks, err := GenerateFull(ch, chronology.Week, chronology.Day, 1, 12784)
	if err != nil {
		t.Fatal(err)
	}
	order2, err := Foreach(days, interval.During, true, weeks)
	if err != nil {
		t.Fatal(err)
	}
	weekdays := SelectList(1, 2, 3, 4, 5)
	mixed := Selection{Items: []SelItem{{Range: true, From: 2, To: 4}, {Last: true}}}
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"Foreach during", 3, func() { Foreach(days, interval.During, true, weeks) }},
		{"Foreach strict overlaps", 3, func() { Foreach(weeks, interval.Overlaps, true, days) }},
		{"Select [n]", 3, func() { Select(SelectLast(), order2) }},
		{"Select [1,2,3,4,5]", 3, func() { Select(weekdays, order2) }},
		{"Select [2-4,n]", 3, func() { Select(mixed, order2) }},
		{"Flatten of a tiling grouping", 1, func() { order2.Flatten() }},
		{"SizeBytes", 0, func() { order2.SizeBytes() }},
		{"Cardinality", 0, func() { order2.Cardinality() }},
		{"IsEmpty", 0, func() { order2.IsEmpty() }},
		{"Equal", 0, func() { order2.Equal(order2) }},
	} {
		if allocs := testing.AllocsPerRun(20, tc.run); allocs > tc.max {
			t.Errorf("%s allocates %.0f/op, want ≤ %.0f", tc.name, allocs, tc.max)
		}
	}
	if flat := order2.Flatten(); &flat.ivs[0] != &days.ivs[0] || flat.Len() != days.Len() || !flat.sortedDisjoint {
		t.Error("Flatten of a tiling grouping is not a sorted disjoint view of the operand's slab")
	}
}

// TestFlattenViewOutlivesGrouping: a grouping, its Flatten view and the
// operand share one slab and nothing else — no pooled arena — so each stays
// equal to a fresh copy after the others are dropped and collected.
func TestFlattenViewOutlivesGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	build := func() (grouping, view *Calendar) {
		c := MustFromIntervals(chronology.Day, randDisjointSorted(rng, 400)...)
		arg := MustFromIntervals(chronology.Day, randDisjointSorted(rng, 60)...)
		grouping, err := Foreach(c, interval.During, false, arg)
		if err != nil {
			t.Fatal(err)
		}
		return grouping, grouping.Flatten()
	}
	churn := func() {
		// Reuse whatever the collector freed: more sweeps, more slabs.
		for i := 0; i < 50; i++ {
			build()
		}
		runtime.GC()
	}

	grouping, view := build()
	wantGrouping, wantView := grouping.String(), view.String()
	grouping = nil
	churn()
	if view.String() != wantView {
		t.Fatal("Flatten view changed after its grouping was collected")
	}

	grouping, view = build()
	wantGrouping = grouping.String()
	view = nil
	churn()
	if grouping.String() != wantGrouping {
		t.Fatal("grouping changed after its Flatten view was collected")
	}
}
