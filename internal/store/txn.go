package store

import "fmt"

// Txn is a serializable transaction: it holds the database's transaction
// lock for its lifetime and keeps an undo log so Rollback restores the exact
// prior state. Event listeners (the rule system) run inside the transaction;
// their own mutations join the same undo log.
type Txn struct {
	db    *DB
	undo  []undoRec
	done  bool
	depth int // listener recursion depth
}

type undoKind int

const (
	undoInsert undoKind = iota
	undoDelete
	undoUpdate
)

type undoRec struct {
	kind  undoKind
	table *Table
	rid   int64
	old   Row
}

// maxListenerDepth bounds rule-triggering-rule recursion.
const maxListenerDepth = 8

// Begin starts a transaction, blocking until the database is free.
func (db *DB) Begin() *Txn {
	db.txnMu.Lock()
	return &Txn{db: db}
}

// Commit makes the transaction's effects permanent.
func (tx *Txn) Commit() error {
	if tx.done {
		return fmt.Errorf("store: transaction already finished")
	}
	tx.done = true
	tx.undo = nil
	tx.db.txnMu.Unlock()
	return nil
}

// Rollback undoes every effect of the transaction.
func (tx *Txn) Rollback() error {
	if tx.done {
		return fmt.Errorf("store: transaction already finished")
	}
	tx.done = true
	for i := len(tx.undo) - 1; i >= 0; i-- {
		r := tx.undo[i]
		switch r.kind {
		case undoInsert:
			_, _ = r.table.deleteRaw(r.rid)
		case undoDelete:
			r.table.restoreRaw(r.rid, r.old)
		case undoUpdate:
			_, _ = r.table.updateRaw(r.rid, r.old)
		}
	}
	tx.undo = nil
	tx.db.txnMu.Unlock()
	return nil
}

func (tx *Txn) table(name string) (*Table, error) {
	t, ok := tx.db.Table(name)
	if !ok {
		return nil, fmt.Errorf("store: no table %q", name)
	}
	return t, nil
}

func (tx *Txn) fire(ev Event) error {
	tx.db.catMu.RLock()
	listeners := make([]EventListener, len(tx.db.listeners))
	copy(listeners, tx.db.listeners)
	tx.db.catMu.RUnlock()
	if len(listeners) == 0 {
		return nil
	}
	if tx.depth >= maxListenerDepth {
		return fmt.Errorf("store: rule recursion deeper than %d", maxListenerDepth)
	}
	tx.depth++
	defer func() { tx.depth-- }()
	for _, l := range listeners {
		if err := l(tx, ev); err != nil {
			return err
		}
	}
	return nil
}

// Append inserts a row, firing append events.
func (tx *Txn) Append(table string, row Row) (int64, error) {
	if tx.done {
		return 0, fmt.Errorf("store: transaction already finished")
	}
	t, err := tx.table(table)
	if err != nil {
		return 0, err
	}
	validated, err := t.validateRow(row)
	if err != nil {
		return 0, err
	}
	rid, err := t.insertRaw(validated)
	if err != nil {
		return 0, err
	}
	tx.undo = append(tx.undo, undoRec{kind: undoInsert, table: t, rid: rid})
	if err := tx.fire(Event{Op: EvAppend, Table: t.Name, RID: rid, New: validated}); err != nil {
		return 0, err
	}
	return rid, nil
}

// Delete removes a row, firing delete events.
func (tx *Txn) Delete(table string, rid int64) error {
	if tx.done {
		return fmt.Errorf("store: transaction already finished")
	}
	t, err := tx.table(table)
	if err != nil {
		return err
	}
	old, err := t.deleteRaw(rid)
	if err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoRec{kind: undoDelete, table: t, rid: rid, old: old})
	return tx.fire(Event{Op: EvDelete, Table: t.Name, RID: rid, Old: old})
}

// Replace updates a row in place, firing replace events.
func (tx *Txn) Replace(table string, rid int64, row Row) error {
	if tx.done {
		return fmt.Errorf("store: transaction already finished")
	}
	t, err := tx.table(table)
	if err != nil {
		return err
	}
	validated, err := t.validateRow(row)
	if err != nil {
		return err
	}
	old, err := t.updateRaw(rid, validated)
	if err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoRec{kind: undoUpdate, table: t, rid: rid, old: old.Clone()})
	return tx.fire(Event{Op: EvReplace, Table: t.Name, RID: rid, New: validated, Old: old})
}

// Retrieve reads rows matching the filter (nil = all), firing retrieve
// events per row delivered.
func (tx *Txn) Retrieve(table string, filter func(Row) bool, visit func(rid int64, row Row) bool) error {
	if tx.done {
		return fmt.Errorf("store: transaction already finished")
	}
	t, err := tx.table(table)
	if err != nil {
		return err
	}
	var fireErr error
	t.Scan(func(rid int64, row Row) bool {
		if filter != nil && !filter(row) {
			return true
		}
		if err := tx.fire(Event{Op: EvRetrieve, Table: t.Name, RID: rid, Old: row}); err != nil {
			fireErr = err
			return false
		}
		return visit(rid, row)
	})
	return fireErr
}

// RunTxn executes fn in a transaction, committing on nil error and rolling
// back otherwise.
func (db *DB) RunTxn(fn func(tx *Txn) error) error {
	tx := db.Begin()
	if err := fn(tx); err != nil {
		_ = tx.Rollback()
		return err
	}
	return tx.Commit()
}
