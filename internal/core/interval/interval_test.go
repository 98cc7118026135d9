package interval

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 5); err != nil {
		t.Errorf("New(1,5): %v", err)
	}
	if _, err := New(-4, 3); err != nil {
		t.Errorf("New(-4,3): %v (paper's first 1993 week)", err)
	}
	for _, bad := range [][2]int64{{0, 5}, {1, 0}, {0, 0}, {5, 1}, {-1, -3}} {
		if _, err := New(bad[0], bad[1]); err == nil {
			t.Errorf("New(%d,%d) should fail", bad[0], bad[1])
		}
	}
}

func TestMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Must(0,1) should panic")
		}
	}()
	Must(0, 1)
}

func TestLengthSkipsZero(t *testing.T) {
	cases := []struct {
		iv   Interval
		want int64
	}{
		{Must(1, 1), 1},
		{Must(1, 31), 31},
		{Must(-4, 3), 7}, // -4..-1 and 1..3: a full week
		{Must(-1, 1), 2},
		{Must(-7, -1), 7},
	}
	for _, tc := range cases {
		if got := tc.iv.Length(); got != tc.want {
			t.Errorf("%v.Length() = %d, want %d", tc.iv, got, tc.want)
		}
	}
}

func TestContains(t *testing.T) {
	iv := Must(-4, 3)
	for _, in := range []int64{-4, -1, 1, 3} {
		if !iv.Contains(in) {
			t.Errorf("%v should contain %d", iv, in)
		}
	}
	for _, out := range []int64{-5, 0, 4} {
		if iv.Contains(out) {
			t.Errorf("%v should not contain %d", iv, out)
		}
	}
}

func TestIntersectHullAdjacent(t *testing.T) {
	a, b := Must(1, 10), Must(5, 20)
	got, ok := a.Intersect(b)
	if !ok || got != Must(5, 10) {
		t.Errorf("Intersect = %v,%v", got, ok)
	}
	if _, ok := Must(1, 3).Intersect(Must(5, 9)); ok {
		t.Error("disjoint intervals should not intersect")
	}
	if h := a.Hull(b); h != Must(1, 20) {
		t.Errorf("Hull = %v", h)
	}
}

func TestListOps(t *testing.T) {
	// Examples from §3.1 of the paper.
	jan := Must(1, 31)
	w0 := Must(-4, 3)
	w1 := Must(4, 10)
	w5 := Must(25, 31)
	w6 := Must(32, 38)
	if !Overlaps.Eval(w0, jan) || !Overlaps.Eval(w1, jan) || !Overlaps.Eval(w6, jan) == false {
		// w6 (32,38) does not overlap January (1,31)
	}
	if Overlaps.Eval(w6, jan) {
		t.Error("(32,38) must not overlap (1,31)")
	}
	if !Overlaps.Eval(w0, jan) {
		t.Error("(-4,3) overlaps (1,31)")
	}
	if During.Eval(w0, jan) {
		t.Error("(-4,3) is not during (1,31)")
	}
	if !During.Eval(w1, jan) || !During.Eval(w5, jan) {
		t.Error("(4,10) and (25,31) are during (1,31)")
	}
	if !Meets.Eval(Must(1, 5), Must(5, 9)) || Meets.Eval(Must(1, 5), Must(6, 9)) {
		t.Error("meets requires u1 = l2")
	}
	if !Before.Eval(Must(1, 5), Must(5, 9)) || !Before.Eval(Must(1, 4), Must(5, 9)) || Before.Eval(Must(1, 6), Must(5, 9)) {
		t.Error("< requires u1 <= l2")
	}
	if !BeforeEquals.Eval(Must(1, 5), Must(1, 9)) || BeforeEquals.Eval(Must(2, 5), Must(1, 9)) {
		t.Error("<= requires l1 <= l2 and u2 >= u1")
	}
}

func TestParseListOp(t *testing.T) {
	for _, name := range []string{"overlaps", "during", "meets", "<", "<="} {
		op, err := ParseListOp(name)
		if err != nil {
			t.Errorf("ParseListOp(%q): %v", name, err)
			continue
		}
		if op.String() != name {
			t.Errorf("round trip %q -> %q", name, op.String())
		}
		if !op.Valid() {
			t.Errorf("%q should be valid", name)
		}
	}
	if _, err := ParseListOp("near"); err == nil {
		t.Error("ParseListOp(near) should fail")
	}
}

// The listops are coarsenings of Allen's relations: overlaps is a non-empty
// intersection, and during holds for a point at either end of its container
// (the pair the full classifier would call meets / met-by).
func TestAllenExhaustiveProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 int8) bool {
		a := mkIval(a1, a2)
		b := mkIval(b1, b2)
		_, intersects := a.Intersect(b)
		return Overlaps.Eval(a, b) == intersects &&
			During.Eval(a, b) == (intersects && a.Hull(b) == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	// The pairs a random draw reaches about one run in fifty, pinned.
	for _, tc := range []struct{ a, b Interval }{
		{Must(5, 5), Must(5, 8)},
		{Must(8, 8), Must(5, 8)},
	} {
		if !During.Eval(tc.a, tc.b) || !f(int8(tc.a.Lo), int8(tc.a.Hi), int8(tc.b.Lo), int8(tc.b.Hi)) {
			t.Errorf("point %v at an end of %v: During = %v", tc.a, tc.b, During.Eval(tc.a, tc.b))
		}
	}
}

// mkIval builds a valid no-zero interval from arbitrary bytes.
func mkIval(x, y int8) Interval {
	lo, hi := int64(x), int64(y)
	if lo == 0 {
		lo = 1
	}
	if hi == 0 {
		hi = 1
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	return Interval{Lo: lo, Hi: hi}
}

// The relationship operators print in the language's surface syntax, and an
// out-of-range value neither aliases one nor passes Valid.
func TestRelationNames(t *testing.T) {
	if Overlaps.String() != "overlaps" || Before.String() != "<" || BeforeEquals.String() != "<=" {
		t.Error("listop names wrong")
	}
	if bad := ListOp(99); bad.Valid() || bad.String() == "overlaps" {
		t.Error("out-of-range listop must not alias")
	}
}
