package store

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBTreeInsertLookup(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 1000; i++ {
		if err := bt.Insert(NewInt(i%100), i); err != nil {
			t.Fatal(err)
		}
	}
	if bt.Len() != 1000 {
		t.Errorf("Len = %d", bt.Len())
	}
	rids := bt.Lookup(NewInt(42))
	if len(rids) != 10 {
		t.Errorf("Lookup(42) = %d rids, want 10", len(rids))
	}
	if got := bt.Lookup(NewInt(1234)); got != nil {
		t.Errorf("Lookup(missing) = %v", got)
	}
	if err := bt.checkInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree()
	const n = 500
	for i := int64(0); i < n; i++ {
		if err := bt.Insert(NewInt(i), i); err != nil {
			t.Fatal(err)
		}
	}
	// Delete odd keys.
	for i := int64(1); i < n; i += 2 {
		if !bt.Delete(NewInt(i), i) {
			t.Fatalf("Delete(%d) reported missing", i)
		}
	}
	if bt.Len() != n/2 {
		t.Errorf("Len = %d, want %d", bt.Len(), n/2)
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatalf("invariants after deletes: %v", err)
	}
	for i := int64(0); i < n; i++ {
		got := bt.Lookup(NewInt(i))
		wantPresent := i%2 == 0
		if (got != nil) != wantPresent {
			t.Errorf("Lookup(%d) present=%v, want %v", i, got != nil, wantPresent)
		}
	}
	if bt.Delete(NewInt(10_000), 1) {
		t.Error("deleting a missing key should report false")
	}
	if bt.Delete(NewInt(0), 999) {
		t.Error("deleting a missing rid should report false")
	}
}

func TestBTreeDuplicateRids(t *testing.T) {
	bt := NewBTree()
	for rid := int64(0); rid < 5; rid++ {
		if err := bt.Insert(NewText("k"), rid); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(bt.Lookup(NewText("k"))); got != 5 {
		t.Fatalf("dup rids = %d", got)
	}
	bt.Delete(NewText("k"), 2)
	rids := bt.Lookup(NewText("k"))
	if len(rids) != 4 {
		t.Fatalf("after delete: %v", rids)
	}
	for _, r := range rids {
		if r == 2 {
			t.Error("rid 2 still present")
		}
	}
}

func TestBTreeAscend(t *testing.T) {
	bt := NewBTree()
	perm := rand.New(rand.NewSource(7)).Perm(300)
	for _, k := range perm {
		if err := bt.Insert(NewInt(int64(k)), int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	bt.Ascend(nil, nil, func(k Value, rids []int64) bool {
		got = append(got, k.I)
		return true
	})
	if len(got) != 300 {
		t.Fatalf("full scan = %d keys", len(got))
	}
	for i := range got {
		if got[i] != int64(i) {
			t.Fatalf("scan out of order at %d: %d", i, got[i])
		}
	}
	// Bounded range.
	lo, hi := NewInt(50), NewInt(59)
	got = nil
	bt.Ascend(&lo, &hi, func(k Value, rids []int64) bool {
		got = append(got, k.I)
		return true
	})
	if len(got) != 10 || got[0] != 50 || got[9] != 59 {
		t.Errorf("range scan = %v", got)
	}
	// Early stop.
	count := 0
	bt.Ascend(nil, nil, func(Value, []int64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestBTreeRejectsCalendarKeys(t *testing.T) {
	bt := NewBTree()
	if err := bt.Insert(Value{T: TCalendar}, 1); err == nil {
		t.Error("calendar keys must be rejected")
	}
}

// Property: after any interleaving of inserts and deletes, the tree holds
// exactly the surviving pairs, iterates in order, and keeps its structural
// invariants.
func TestBTreeRandomOpsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bt := NewBTree()
		ref := map[int64]map[int64]bool{} // key -> set of rids
		for op := 0; op < 400; op++ {
			k := int64(rng.Intn(60))
			rid := int64(rng.Intn(8))
			if rng.Intn(3) > 0 {
				if ref[k] == nil {
					ref[k] = map[int64]bool{}
				}
				if !ref[k][rid] {
					if err := bt.Insert(NewInt(k), rid); err != nil {
						return false
					}
					ref[k][rid] = true
				}
			} else {
				want := ref[k] != nil && ref[k][rid]
				got := bt.Delete(NewInt(k), rid)
				if got != want {
					return false
				}
				if want {
					delete(ref[k], rid)
					if len(ref[k]) == 0 {
						delete(ref, k)
					}
				}
			}
		}
		if err := bt.checkInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		total := 0
		for k, rids := range ref {
			got := bt.Lookup(NewInt(k))
			if len(got) != len(rids) {
				return false
			}
			for _, r := range got {
				if !rids[r] {
					return false
				}
			}
			total += len(rids)
		}
		if bt.Len() != total {
			return false
		}
		// Ordered iteration covers exactly the reference keys.
		prev := int64(-1)
		seen := 0
		okOrder := true
		bt.Ascend(nil, nil, func(k Value, rids []int64) bool {
			if k.I <= prev {
				okOrder = false
				return false
			}
			prev = k.I
			seen++
			return true
		})
		return okOrder && seen == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Deleting keys in a shuffled order removes many from internal nodes, where
// a key is replaced by its predecessor or successor before the leaf delete;
// invariants and lookups must hold throughout.
func TestBTreeShuffledDelete(t *testing.T) {
	bt := NewBTree()
	const n = 5000
	for i := int64(0); i < n; i++ {
		if err := bt.Insert(NewInt(i), i); err != nil {
			t.Fatal(err)
		}
	}
	order := rand.New(rand.NewSource(1)).Perm(n)
	for j, k := range order {
		if !bt.Delete(NewInt(int64(k)), int64(k)) {
			t.Fatalf("Delete(%d) missing", k)
		}
		if bt.Lookup(NewInt(int64(k))) != nil {
			t.Fatalf("key %d still present after its delete", k)
		}
		if j%500 == 499 {
			if err := bt.checkInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", j+1, err)
			}
			for _, live := range order[j+1:] {
				if got := bt.Lookup(NewInt(int64(live))); len(got) != 1 || got[0] != int64(live) {
					t.Fatalf("after %d deletes: Lookup(%d) = %v", j+1, live, got)
				}
			}
		}
	}
	if bt.Len() != 0 {
		t.Errorf("Len after drain = %d", bt.Len())
	}
}

func TestBTreeLargeSequential(t *testing.T) {
	bt := NewBTree()
	const n = 20000
	for i := int64(0); i < n; i++ {
		if err := bt.Insert(NewInt(i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Delete everything in reverse.
	for i := int64(n - 1); i >= 0; i-- {
		if !bt.Delete(NewInt(i), i) {
			t.Fatalf("Delete(%d) missing", i)
		}
	}
	if bt.Len() != 0 {
		t.Errorf("Len after drain = %d", bt.Len())
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
}
