package calendar

import (
	"sort"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// fuzzDecodeIntervals turns fuzz bytes into an interval list: each byte pair
// is a (gap, width) delta. With forceDisjoint the gap is at least one tick,
// yielding the sorted disjoint shape the sweep kernels require; without it,
// zero gaps and generous widths produce the overlapping general shape the
// set operators must also handle.
func fuzzDecodeIntervals(b []byte, forceDisjoint bool) []interval.Interval {
	out := make([]interval.Interval, 0, len(b)/2)
	off := int64(-20)
	for i := 0; i+1 < len(b); i += 2 {
		gap := int64(b[i] % 4)
		width := int64(b[i+1] % 6)
		if forceDisjoint {
			gap++
			out = append(out, interval.Interval{
				Lo: chronology.TickFromOffset(off + gap),
				Hi: chronology.TickFromOffset(off + gap + width),
			})
			off += gap + width
		} else {
			// Lower bounds stay non-decreasing (the order-1 calendar
			// invariant); widths freely overlap successors.
			off += gap
			out = append(out, interval.Interval{
				Lo: chronology.TickFromOffset(off),
				Hi: chronology.TickFromOffset(off + width),
			})
		}
	}
	return out
}

// fuzzDecodeSelection turns one fuzz byte into a predicate: the low two bits
// pick the shape ([k], [n], a range, a list with a repeat), bit 2 the sign of
// k, the rest k itself and the range's far end.
func fuzzDecodeSelection(b byte) Selection {
	k := int(b>>3)%9 + 1
	if b&4 != 0 {
		k = -k
	}
	switch b & 3 {
	case 0:
		return SelectIndex(k)
	case 1:
		return SelectLast()
	case 2:
		return SelectRange(k, int(b>>5)+1)
	}
	return SelectList(k, 1, k)
}

// FuzzSweepVsNaive drives the sweep kernels, the foreach definition (on
// overlapping and order-2 operands, up to order 4), the selection over their
// extents and the set operators (on left operands in and out of order) from
// fuzz-shaped interval lists and a fuzz-shaped predicate, checking all five
// listops in both strict and relaxed form against the naive references. Run
// by the CI fuzz-smoke job.
func FuzzSweepVsNaive(f *testing.F) {
	f.Add([]byte{}, []byte{}, false, byte(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6}, []byte{2, 2, 0, 5}, false, byte(1))
	f.Add([]byte{0, 0, 0, 0, 3, 1}, []byte{0, 4, 0, 4, 0, 4}, true, byte(0x4e))
	f.Add([]byte{7, 5, 1, 0, 2, 2, 9, 9}, []byte{1, 1, 1, 1}, true, byte(0x13))
	f.Fuzz(func(t *testing.T, cb, ab []byte, messy bool, selb byte) {
		if len(cb) > 64 || len(ab) > 64 {
			return // keep each execution cheap; shape variety needs no scale
		}
		c, err := FromIntervals(chronology.Day, fuzzDecodeIntervals(cb, true))
		if err != nil {
			t.Fatalf("disjoint decode produced invalid calendar: %v", err)
		}
		arg, err := FromIntervals(chronology.Day, fuzzDecodeIntervals(ab, true))
		if err != nil {
			t.Fatalf("disjoint decode produced invalid calendar: %v", err)
		}
		for _, op := range allListOps {
			for _, strict := range []bool{false, true} {
				want := naiveForeach(c, op, strict, arg)
				if ep := foreachSweepEndpoint(c, op, strict, arg); !ep.Equal(want) {
					t.Fatalf("op %v strict %v: endpoint kernel diverges\nc   = %v\narg = %v\ngot  %v\nwant %v",
						op, strict, c, arg, ep, want)
				}
				checkColumnar(t, c, op, strict, arg, fuzzDecodeSelection(selb))
			}
		}

		// The definition, on the operands the sweep cannot take: the same bytes
		// decoded with overlaps, and an order-2 calendar of both decodings (its
		// leaves out of order) — diced by a list that is order 3, and 4.
		overlapping, err := FromIntervals(chronology.Day, fuzzDecodeIntervals(cb, false))
		if err != nil {
			t.Fatalf("messy decode produced invalid calendar: %v", err)
		}
		order2 := mustFromSubs(t, []*Calendar{overlapping, c})
		few := &Calendar{gran: arg.gran, ivs: arg.ivs[:min(len(arg.ivs), 3)], sortedDisjoint: true} // order 4 is few³ × leaves
		for _, op := range allListOps {
			checkColumnar(t, overlapping, op, messy, arg, fuzzDecodeSelection(selb))
			if few.Len() < 2 {
				checkColumnar(t, order2, op, messy, few, fuzzDecodeSelection(selb))
			} else {
				checkOrder3(t, order2, op, messy, few, fuzzDecodeSelection(selb))
			}
		}

		// Set operators: optionally re-decode b without the disjoint
		// constraint so the fused-coverage fallback (ToSet) is exercised. The
		// left operand is c, then two that step back: a descending selection
		// of c and the pieces Diff leaves of an overlapping operand.
		b := arg
		if messy {
			b, err = FromIntervals(chronology.Day, fuzzDecodeIntervals(ab, false))
			if err != nil {
				t.Fatalf("messy decode produced invalid calendar: %v", err)
			}
		}
		descending, err := Select(SelectList(-1, 1, -2), c)
		if err != nil {
			t.Fatal(err)
		}
		pieces, err := Diff(overlapping, arg)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []*Calendar{c, descending, pieces} {
			gotD, err := Diff(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveSetOp(a, b, true); !gotD.Equal(want) {
				t.Fatalf("Diff(%v, %v) = %v, want %v", a, b, gotD, want)
			}
			gotI, err := Intersect(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveSetOp(a, b, false); !gotI.Equal(want) {
				t.Fatalf("Intersect(%v, %v) = %v, want %v", a, b, gotI, want)
			}
		}
		gotU, err := Union(c, b)
		if err != nil {
			t.Fatal(err)
		}
		// A messy b can list equal lower bounds in any order of upper bound;
		// the naive definition covers operands sorted by both.
		sorted := sort.SliceIsSorted(b.ivs, func(i, j int) bool { return less(b.ivs[i], b.ivs[j]) })
		if wantU := naiveUnion(c, b); sorted && !gotU.Equal(wantU) {
			t.Fatalf("Union(%v, %v) = %v, want %v", c, b, gotU, wantU)
		}
		// The merge classifies as it goes: the flag is exact, not conservative.
		if gotU.sortedDisjoint != disjointSorted(gotU.ivs) {
			t.Fatalf("Union(%v, %v) = %v carries sortedDisjoint = %v", c, b, gotU, gotU.sortedDisjoint)
		}
	})
}
