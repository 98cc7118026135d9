package store

import (
	"fmt"
	"strings"
)

// btreeDegree is the minimum degree t of the B-tree: every node except the
// root holds between t-1 and 2t-1 keys.
const btreeDegree = 16

// BTree is an ordered multi-map from Value keys to row ids, used for
// secondary indexes. Duplicate keys are supported; each key holds the set of
// row ids carrying it.
type BTree struct {
	root *btreeNode
	size int // number of (key,rid) pairs
}

type btreeEntry struct {
	key  Value
	rids []int64
}

type btreeNode struct {
	entries  []btreeEntry
	children []*btreeNode // nil for leaves
}

// NewBTree returns an empty index.
func NewBTree() *BTree {
	return &BTree{root: &btreeNode{}}
}

// Len returns the number of (key, rowid) pairs.
func (t *BTree) Len() int { return t.size }

func (n *btreeNode) leaf() bool { return n.children == nil }

// findKey locates key within a node: the index of the first entry >= key and
// whether it is an exact match. Comparison errors cannot occur because an
// index holds one type.
func (n *btreeNode) findKey(key Value) (int, bool) {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareKeys(&n.entries[mid].key, &key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.entries) && compareKeys(&n.entries[lo].key, &key) == 0
}

// compareKeys is Compare for index keys, int and text ones without copies.
func compareKeys(a, b *Value) int {
	switch {
	case a.T == TInt && b.T == TInt:
		return cmpInt(a.I, b.I)
	case a.T == TText && b.T == TText:
		return strings.Compare(a.S, b.S)
	}
	c, _ := Compare(*a, *b)
	return c
}

// Insert adds a (key, rid) pair.
func (t *BTree) Insert(key Value, rid int64) error {
	if key.T == TCalendar {
		return fmt.Errorf("store: calendar values are not indexable")
	}
	if len(t.root.entries) == 2*btreeDegree-1 {
		old := t.root
		t.root = &btreeNode{children: []*btreeNode{old}}
		t.root.splitChild(0)
	}
	t.root.insertNonFull(key, rid)
	t.size++
	return nil
}

func (n *btreeNode) insertNonFull(key Value, rid int64) {
	i, exact := n.findKey(key)
	if exact {
		n.entries[i].rids = append(n.entries[i].rids, rid)
		return
	}
	if n.leaf() {
		n.entries = append(n.entries, btreeEntry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = btreeEntry{key: key, rids: []int64{rid}}
		return
	}
	if len(n.children[i].entries) == 2*btreeDegree-1 {
		n.splitChild(i)
		if c, _ := Compare(n.entries[i].key, key); c == 0 {
			n.entries[i].rids = append(n.entries[i].rids, rid)
			return
		} else if c < 0 {
			i++
		}
	}
	n.children[i].insertNonFull(key, rid)
}

// splitChild splits the full child at index i, hoisting its median entry.
func (n *btreeNode) splitChild(i int) {
	child := n.children[i]
	mid := btreeDegree - 1
	medianEntry := child.entries[mid]

	right := &btreeNode{entries: make([]btreeEntry, 0, 2*btreeDegree-1)}
	right.entries = append(right.entries, child.entries[mid+1:]...)
	if !child.leaf() {
		right.children = append(right.children, child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.entries = child.entries[:mid]

	n.entries = append(n.entries, btreeEntry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = medianEntry
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// Lookup returns the row ids stored under key (nil when absent). The slice
// is shared; callers must not modify it.
func (t *BTree) Lookup(key Value) []int64 {
	n := t.root
	for {
		i, exact := n.findKey(key)
		if exact {
			return n.entries[i].rids
		}
		if n.leaf() {
			return nil
		}
		n = n.children[i]
	}
}

// Delete removes one (key, rid) pair, reporting whether it was present.
// When a key's last rid is removed the key itself is deleted with standard
// B-tree rebalancing.
func (t *BTree) Delete(key Value, rid int64) bool {
	n := t.root
	// First remove rid from the key's rid set, wherever it is.
	var holder *btreeEntry
	for {
		i, exact := n.findKey(key)
		if exact {
			holder = &n.entries[i]
			break
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
	found := false
	for j, r := range holder.rids {
		if r == rid {
			holder.rids = append(holder.rids[:j], holder.rids[j+1:]...)
			found = true
			break
		}
	}
	if !found {
		return false
	}
	t.size--
	if len(holder.rids) > 0 {
		return true
	}
	t.root.deleteKey(key)
	if len(t.root.entries) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	return true
}

// deleteKey removes an (empty-rid) key from the subtree, keeping B-tree
// invariants (CLR-style delete with borrow/merge).
func (n *btreeNode) deleteKey(key Value) {
	i, exact := n.findKey(key)
	if exact {
		if n.leaf() {
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
			return
		}
		// Replace with predecessor or successor, then recurse.
		if len(n.children[i].entries) >= btreeDegree {
			pred := n.children[i].maxEntry()
			n.entries[i] = pred
			n.children[i].deleteKey(pred.key)
			return
		}
		if len(n.children[i+1].entries) >= btreeDegree {
			succ := n.children[i+1].minEntry()
			n.entries[i] = succ
			n.children[i+1].deleteKey(succ.key)
			return
		}
		n.mergeChildren(i)
		n.children[i].deleteKey(key)
		return
	}
	if n.leaf() {
		return // key not present
	}
	if len(n.children[i].entries) < btreeDegree {
		n.fillChild(i)
		// fillChild may have merged; recompute position.
		i, exact = n.findKey(key)
		if exact {
			n.deleteKey(key)
			return
		}
		if n.leaf() {
			return
		}
	}
	n.children[i].deleteKey(key)
}

func (n *btreeNode) maxEntry() btreeEntry {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.entries[len(n.entries)-1]
}

func (n *btreeNode) minEntry() btreeEntry {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.entries[0]
}

// fillChild ensures child i has at least btreeDegree entries by borrowing
// from a sibling or merging.
func (n *btreeNode) fillChild(i int) {
	switch {
	case i > 0 && len(n.children[i-1].entries) >= btreeDegree:
		// Borrow from the left sibling through the separator.
		child, left := n.children[i], n.children[i-1]
		child.entries = append([]btreeEntry{n.entries[i-1]}, child.entries...)
		n.entries[i-1] = left.entries[len(left.entries)-1]
		left.entries = left.entries[:len(left.entries)-1]
		if !left.leaf() {
			child.children = append([]*btreeNode{left.children[len(left.children)-1]}, child.children...)
			left.children = left.children[:len(left.children)-1]
		}
	case i < len(n.entries) && len(n.children[i+1].entries) >= btreeDegree:
		child, right := n.children[i], n.children[i+1]
		child.entries = append(child.entries, n.entries[i])
		n.entries[i] = right.entries[0]
		right.entries = right.entries[1:]
		if !right.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = right.children[1:]
		}
	case i < len(n.entries):
		n.mergeChildren(i)
	default:
		n.mergeChildren(i - 1)
	}
}

// mergeChildren merges child i, separator i and child i+1.
func (n *btreeNode) mergeChildren(i int) {
	left, right := n.children[i], n.children[i+1]
	left.entries = append(left.entries, n.entries[i])
	left.entries = append(left.entries, right.entries...)
	left.children = append(left.children, right.children...)
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// Ascend visits all (key, rids) pairs with lo <= key <= hi in order; nil
// bounds are open. The visitor returns false to stop.
func (t *BTree) Ascend(lo, hi *Value, visit func(key Value, rids []int64) bool) {
	t.root.ascend(lo, hi, visit)
}

func (n *btreeNode) ascend(lo, hi *Value, visit func(Value, []int64) bool) bool {
	start := 0
	if lo != nil {
		// First entry >= lo; entries before it are below the range, but
		// children[start] may still contain in-range keys.
		start, _ = n.findKey(*lo)
	}
	for i := start; i < len(n.entries); i++ {
		if !n.leaf() {
			childLo := lo
			if i > start {
				childLo = nil // already past the lower bound
			}
			if !n.children[i].ascend(childLo, hi, visit) {
				return false
			}
		}
		e := n.entries[i]
		if hi != nil {
			if c, _ := Compare(e.key, *hi); c > 0 {
				return false
			}
		}
		if !visit(e.key, e.rids) {
			return false
		}
	}
	if !n.leaf() {
		childLo := lo
		if len(n.entries) > start {
			childLo = nil
		}
		return n.children[len(n.entries)].ascend(childLo, hi, visit)
	}
	return true
}

// checkInvariants validates B-tree structural invariants (for tests): key
// ordering, node occupancy, and uniform leaf depth. It returns the first
// violation found.
func (t *BTree) checkInvariants() error {
	depth := -1
	var walk func(n *btreeNode, level int, min, max *Value) error
	walk = func(n *btreeNode, level int, min, max *Value) error {
		if n != t.root && len(n.entries) < btreeDegree-1 {
			return fmt.Errorf("node underflow: %d entries", len(n.entries))
		}
		if len(n.entries) > 2*btreeDegree-1 {
			return fmt.Errorf("node overflow: %d entries", len(n.entries))
		}
		for i, e := range n.entries {
			if len(e.rids) == 0 {
				return fmt.Errorf("key %v has no rids", e.key)
			}
			if i > 0 {
				if c, _ := Compare(n.entries[i-1].key, e.key); c >= 0 {
					return fmt.Errorf("keys out of order: %v >= %v", n.entries[i-1].key, e.key)
				}
			}
			if min != nil {
				if c, _ := Compare(e.key, *min); c <= 0 {
					return fmt.Errorf("key %v <= subtree min bound %v", e.key, *min)
				}
			}
			if max != nil {
				if c, _ := Compare(e.key, *max); c >= 0 {
					return fmt.Errorf("key %v >= subtree max bound %v", e.key, *max)
				}
			}
		}
		if n.leaf() {
			if depth == -1 {
				depth = level
			} else if depth != level {
				return fmt.Errorf("leaves at depths %d and %d", depth, level)
			}
			return nil
		}
		if len(n.children) != len(n.entries)+1 {
			return fmt.Errorf("node with %d entries has %d children", len(n.entries), len(n.children))
		}
		for i, child := range n.children {
			cmin, cmax := min, max
			if i > 0 {
				cmin = &n.entries[i-1].key
			}
			if i < len(n.entries) {
				cmax = &n.entries[i].key
			}
			if err := walk(child, level+1, cmin, cmax); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, 0, nil, nil)
}
