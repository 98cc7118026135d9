package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema, rejecting duplicate or empty column names.
func NewSchema(cols ...Column) (Schema, error) {
	seen := map[string]bool{}
	for _, c := range cols {
		name := strings.ToLower(c.Name)
		if name == "" {
			return Schema{}, fmt.Errorf("store: empty column name")
		}
		if seen[name] {
			return Schema{}, fmt.Errorf("store: duplicate column %q", c.Name)
		}
		if c.Type == TNull {
			return Schema{}, fmt.Errorf("store: column %q needs a concrete type", c.Name)
		}
		seen[name] = true
	}
	return Schema{Cols: cols}, nil
}

// ColIndex returns the position of a column (case-insensitive), or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Row is one tuple; its length and types match the table schema.
type Row []Value

// Clone copies a row (values are immutable, so a shallow copy suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is a heap relation: rows indexed by a stable row id, with optional
// B-tree secondary indexes. All mutation goes through a Txn; mu lets readers
// (index probes, scans) run concurrently with the single writing transaction
// — DBCRON probes RULE-TIME while sessions define rules and calendars.
type Table struct {
	Name   string
	Schema Schema

	mu      sync.RWMutex
	rows    []Row // nil entries are deleted (tombstones); row id = slice index
	live    int
	indexes map[string]index // lower-case column name -> index
}

// index is a B-tree secondary index on the column at position col.
type index struct {
	col  int
	tree *BTree
}

func newTable(name string, schema Schema) *Table {
	return &Table{Name: name, Schema: schema, indexes: map[string]index{}}
}

// Len returns the number of live rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Get returns the row with the given id: the stored row itself, not a copy.
// A stored row is never written in place (Replace stores a new one), so a
// caller that edits a row edits a Clone.
func (t *Table) Get(rid int64) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.getLocked(rid)
}

// getLocked is Get for callers already holding mu.
func (t *Table) getLocked(rid int64) (Row, bool) {
	if rid < 0 || rid >= int64(len(t.rows)) || t.rows[rid] == nil {
		return nil, false
	}
	return t.rows[rid], true
}

// Scan visits live rows in insertion order; the visitor returns false to
// stop. The visitor runs against a snapshot taken under the read lock, so it
// may itself access the table (event-rule actions do) without deadlocking.
func (t *Table) Scan(visit func(rid int64, row Row) bool) {
	t.mu.RLock()
	snap := make([]Row, len(t.rows))
	copy(snap, t.rows)
	t.mu.RUnlock()
	for rid, row := range snap {
		if row == nil {
			continue
		}
		if !visit(int64(rid), row) {
			return
		}
	}
}

// HasIndex reports whether column col is indexed.
func (t *Table) HasIndex(col string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[strings.ToLower(col)]
	return ok
}

// LookupEq returns the ids of rows whose column equals val, via the column's
// index when present, else a scan.
func (t *Table) LookupEq(col string, val Value) ([]int64, error) {
	ci := t.Schema.ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("store: table %s has no column %q", t.Name, col)
	}
	t.mu.RLock()
	if idx, ok := t.indexes[strings.ToLower(col)]; ok {
		rids := idx.tree.Lookup(val)
		out := make([]int64, len(rids))
		copy(out, rids)
		t.mu.RUnlock()
		return out, nil
	}
	t.mu.RUnlock()
	var out []int64
	t.Scan(func(rid int64, row Row) bool {
		if Equal(row[ci], val) {
			out = append(out, rid)
		}
		return true
	})
	return out, nil
}

// LookupRange returns ids of rows with lo <= col <= hi (nil bounds open),
// using the index when available.
func (t *Table) LookupRange(col string, lo, hi *Value) ([]int64, error) {
	ci := t.Schema.ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("store: table %s has no column %q", t.Name, col)
	}
	t.mu.RLock()
	if idx, ok := t.indexes[strings.ToLower(col)]; ok {
		var out []int64
		idx.tree.Ascend(lo, hi, func(_ Value, rids []int64) bool {
			out = append(out, rids...)
			return true
		})
		t.mu.RUnlock()
		return out, nil
	}
	t.mu.RUnlock()
	var out []int64
	var scanErr error
	t.Scan(func(rid int64, row Row) bool {
		v := row[ci]
		if lo != nil {
			c, err := Compare(v, *lo)
			if err != nil {
				scanErr = err
				return false
			}
			if c < 0 {
				return true
			}
		}
		if hi != nil {
			c, err := Compare(v, *hi)
			if err != nil {
				scanErr = err
				return false
			}
			if c > 0 {
				return true
			}
		}
		out = append(out, rid)
		return true
	})
	return out, scanErr
}

// validateRow coerces a row to the table schema.
func (t *Table) validateRow(row Row) (Row, error) {
	if len(row) != len(t.Schema.Cols) {
		return nil, fmt.Errorf("store: table %s expects %d values, got %d", t.Name, len(t.Schema.Cols), len(row))
	}
	out := make(Row, len(row))
	for i, v := range row {
		cv, err := v.CoerceTo(t.Schema.Cols[i].Type)
		if err != nil {
			return nil, fmt.Errorf("store: column %s: %w", t.Schema.Cols[i].Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

func (t *Table) indexInsert(rid int64, row Row) error {
	for _, idx := range t.indexes {
		if err := idx.tree.Insert(row[idx.col], rid); err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) indexDelete(rid int64, row Row) {
	for _, idx := range t.indexes {
		idx.tree.Delete(row[idx.col], rid)
	}
}

// insertRaw appends a validated row (txn internal).
func (t *Table) insertRaw(row Row) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rid := int64(len(t.rows))
	if err := t.indexInsert(rid, row); err != nil {
		return 0, err
	}
	t.rows = append(t.rows, row)
	t.live++
	return rid, nil
}

// deleteRaw tombstones a row (txn internal).
func (t *Table) deleteRaw(rid int64) (Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row, ok := t.getLocked(rid)
	if !ok {
		return nil, fmt.Errorf("store: table %s has no row %d", t.Name, rid)
	}
	t.indexDelete(rid, row)
	t.rows[rid] = nil
	t.live--
	return row, nil
}

// restoreRaw resurrects a row at its old id (rollback internal).
func (t *Table) restoreRaw(rid int64, row Row) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for int64(len(t.rows)) <= rid {
		t.rows = append(t.rows, nil)
	}
	if t.rows[rid] == nil {
		t.live++
	}
	t.rows[rid] = row
	_ = t.indexInsert(rid, row)
}

// updateRaw replaces a row in place (txn internal). Only the index entries
// whose key changed move: a key of the same type that compares equal names
// the same tree entry, which already holds rid.
func (t *Table) updateRaw(rid int64, row Row) (Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.getLocked(rid)
	if !ok {
		return nil, fmt.Errorf("store: table %s has no row %d", t.Name, rid)
	}
	for _, idx := range t.indexes {
		o, n := &old[idx.col], &row[idx.col]
		if o.T == n.T && compareKeys(o, n) == 0 {
			continue
		}
		// Insert fails only on a calendar key, and a calendar column is
		// never indexed (CreateIndex), so no index is left half moved.
		if err := idx.tree.Insert(*n, rid); err != nil {
			return nil, err
		}
		idx.tree.Delete(*o, rid)
	}
	t.rows[rid] = row
	return old, nil
}

// indexColumns lists the indexed columns in sorted order (for snapshots).
func (t *Table) indexColumns() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.indexes))
	for col := range t.indexes {
		out = append(out, col)
	}
	sort.Strings(out)
	return out
}

// addIndex installs a built index under col, populating it from the current
// rows (DDL internal; the transaction lock serializes it against writers,
// mu against concurrent readers).
func (t *Table) addIndex(col string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := strings.ToLower(col)
	if _, ok := t.indexes[key]; ok {
		return fmt.Errorf("store: index on %s.%s already exists", t.Name, col)
	}
	idx := index{col: t.Schema.ColIndex(col), tree: NewBTree()}
	for rid, row := range t.rows {
		if row == nil {
			continue
		}
		if err := idx.tree.Insert(row[idx.col], int64(rid)); err != nil {
			return err
		}
	}
	t.indexes[key] = idx
	return nil
}
