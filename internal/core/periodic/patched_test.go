package periodic

import (
	"math/rand"
	"slices"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// A Patched answers Card, IndexRange, Walk and NextAfter as the point set it
// denotes: random point patterns (or none) less random elements
// plus random other points, on both sides of tick 0, against a tick-by-tick
// enumeration of that set.
func TestPatchedMatchesPointSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 3000; it++ {
		period := int64(1 + rng.Intn(9))
		var spans []Span
		for o := int64(0); o < period; o++ {
			if rng.Intn(2) == 0 {
				spans = append(spans, Span{o, o})
			}
		}
		var base *Pattern
		if len(spans) > 0 && rng.Intn(6) > 0 {
			base, _ = New(period, int64(rng.Intn(20)-10), spans)
		}
		// The set over ticks -60..60; the base alone beyond.
		x := Patched{Base: base}
		var set []interval.Interval
		for tk := chronology.Tick(-60); tk <= 60; tk++ {
			if tk == 0 {
				continue
			}
			pt := interval.Interval{Lo: tk, Hi: tk}
			in := base.covers(tk)
			switch {
			case in && rng.Intn(4) == 0:
				x.Removed, in = append(x.Removed, pt), false
			case !in && rng.Intn(5) == 0:
				x.Added, in = append(x.Added, pt), true
			}
			if in {
				set = append(set, pt)
			}
		}
		lo := chronology.Tick(rng.Intn(81) - 40)
		if lo == 0 {
			lo = 1
		}
		win := interval.Interval{Lo: lo, Hi: min(lo+chronology.Tick(rng.Intn(40)), 60)}
		var want []interval.Interval
		for _, pt := range set {
			if pt.Lo >= win.Lo && pt.Lo <= win.Hi {
				want = append(want, pt)
			}
		}
		if got := expand(x, win); !slices.Equal(got, want) || x.Card(win) != int64(len(want)) {
			t.Fatalf("base %v less %v plus %v over %v: %v (card %d), want %v",
				base, x.Removed, x.Added, win, got, x.Card(win), want)
		}
		// Element indices run on across windows: the one before the window
		// is the last element before it.
		if first, _, ok := x.IndexRange(win); ok {
			var prev [1]interval.Interval
			c := x.Walk(first - 1)
			if i := slices.Index(set, want[0]); i > 0 && c.Next(prev[:])[0] != set[i-1] {
				t.Fatalf("base %v less %v plus %v: element before %v is %v, want %v",
					base, x.Removed, x.Added, want[0], prev[0], set[i-1])
			}
		}
		next, ok := x.NextAfter(win.Lo)
		i := slices.IndexFunc(set, func(pt interval.Interval) bool { return pt.Lo > win.Lo })
		if i >= 0 && (!ok || next != set[i].Lo) || i < 0 && ok && next <= 60 {
			t.Fatalf("base %v less %v plus %v: next after %d = %d,%v", base, x.Removed, x.Added, win.Lo, next, ok)
		}
	}
}

// A list less points takes out only those that are its elements, in its
// expansion over a window and in the groups walked over it.
func TestPatchedLessPoints(t *testing.T) {
	days, _ := New(7, 0, []Span{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}}) // ticks 1–5, 8–12, …
	x, ok := PatchSet(Patched{Base: days}, Patched{Added: points(-3, 2, 6, 9, 30)}, '-', days)
	if want := points(-3, 2, 9, 30); !ok || !slices.Equal(x.Removed, want) || len(x.Added) > 0 {
		t.Fatalf("days less points: removed %v, added %v, want removed %v", x.Removed, x.Added, want)
	}
	win := interval.Interval{Lo: 1, Hi: 14}
	if got, want := expand(x, win), points(1, 3, 4, 5, 8, 10, 11, 12); !slices.Equal(got, want) {
		t.Fatalf("expand %v, want %v", got, want)
	}
	weeks := []interval.Interval{{Lo: 1, Hi: 7}, {Lo: 8, Hi: 14}}
	got := x.PerGroup(win, 2, func(k int) interval.Interval { return weeks[k] }, interval.During, true,
		func(n int) []int { return []int{1, n - 1} }, nil)
	if want := points(3, 5, 10, 12); !slices.Equal(got, want) {
		t.Fatalf("second and last of each week %v, want %v", got, want)
	}
}

// points lists single-tick intervals.
func points(ticks ...chronology.Tick) []interval.Interval {
	out := make([]interval.Interval, len(ticks))
	for i, t := range ticks {
		out[i] = interval.Interval{Lo: t, Hi: t}
	}
	return out
}

// expand reads the elements overlapping win off a cursor.
func expand(x Patched, win interval.Interval) []interval.Interval {
	first, last, ok := x.IndexRange(win)
	if !ok {
		return nil
	}
	c := x.Walk(first)
	return c.Next(make([]interval.Interval, last-first+1))
}

// PatchSet over operands whose lists share one array — a stored list and
// runs of it, and results of earlier PatchSets over them — decides every tick
// as the point sets do, starting with (days − (h − p)) − (h − q).
func TestPatchSetAliasedLists(t *testing.T) {
	days, _ := New(7, 0, []Span{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}}) // ticks 1–5, 8–12, …
	h := points(1, 2, 3, 4)
	hp, _ := PatchSet(Patched{Added: h}, Patched{Added: h[:2]}, '-', nil)
	hq, _ := PatchSet(Patched{Added: h}, Patched{Added: h[3:]}, '-', nil)
	dhp, _ := PatchSet(Patched{Base: days}, hp, '-', days)
	if x, ok := PatchSet(dhp, hq, '-', days); !ok || !slices.Equal(x.Removed, h) || len(x.Added) > 0 {
		t.Fatalf("(days − (h − p)) − (h − q): removed %v, added %v, want removed %v", x.Removed, x.Added, h)
	}

	win := interval.Interval{Lo: 1, Hi: 30}
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 500; it++ {
		var h []interval.Interval
		for tk := chronology.Tick(1); tk <= 30; tk++ {
			if rng.Intn(3) == 0 {
				h = append(h, interval.Interval{Lo: tk, Hi: tk})
			}
		}
		// Values and their sets over win: days, and runs of h, all in h's array.
		vals := []Patched{{Base: days}, {Added: h}}
		for k := 0; k < 3 && len(h) > 0; k++ {
			i := rng.Intn(len(h))
			vals = append(vals, Patched{Added: h[i : i+1+rng.Intn(len(h)-i)]})
		}
		sets := make([]map[chronology.Tick]bool, len(vals))
		for i, v := range vals {
			sets[i] = map[chronology.Tick]bool{}
			for _, pt := range expand(v, win) {
				sets[i][pt.Lo] = true
			}
		}
		for k := 0; k < 12; k++ {
			i, j := rng.Intn(len(vals)), rng.Intn(len(vals))
			op := "+-&"[rng.Intn(3)]
			in := func(x, y bool) bool {
				switch op {
				case '+':
					return x || y
				case '-':
					return x && !y
				}
				return x && y
			}
			var base *Pattern
			if in(vals[i].Base != nil, vals[j].Base != nil) {
				base = days
			}
			x, ok := PatchSet(vals[i], vals[j], op, base)
			if !ok {
				t.Fatalf("%v %c %v: not ok", vals[i], op, vals[j])
			}
			want := map[chronology.Tick]bool{}
			var wantPts []interval.Interval
			for tk := chronology.Tick(1); tk <= 30; tk++ {
				if in(sets[i][tk], sets[j][tk]) {
					want[tk] = true
					wantPts = append(wantPts, interval.Interval{Lo: tk, Hi: tk})
				}
			}
			if got := expand(x, win); !slices.Equal(got, wantPts) {
				t.Fatalf("%v %c %v = %v, want %v", vals[i], op, vals[j], got, wantPts)
			}
			vals, sets = append(vals, x), append(sets, want)
		}
	}
}
