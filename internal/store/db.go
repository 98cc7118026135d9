package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// UserFunc is a user-defined function registered with the database — the
// extensibility hook the paper relies on ("support for the declaration of
// operators that take complex data types as arguments"). The calendar system
// registers its expression evaluator and date functions this way.
type UserFunc struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 for variadic
	Fn      func(args []Value) (Value, error)
}

// EventOp identifies a database operation for the rule system.
type EventOp int

// Database operations, matching the Postgres rule system's event kinds.
const (
	EvAppend EventOp = iota
	EvDelete
	EvReplace
	EvRetrieve
)

var eventNames = [...]string{EvAppend: "append", EvDelete: "delete", EvReplace: "replace", EvRetrieve: "retrieve"}

// String names the event operation.
func (e EventOp) String() string {
	if e < 0 || int(e) >= len(eventNames) {
		return fmt.Sprintf("EventOp(%d)", int(e))
	}
	return eventNames[e]
}

// ParseEventOp resolves an event name.
func ParseEventOp(s string) (EventOp, error) {
	for i, n := range eventNames {
		if strings.EqualFold(s, n) {
			return EventOp(i), nil
		}
	}
	return 0, fmt.Errorf("store: unknown event %q", s)
}

// Event describes a database operation delivered to event listeners (the
// rule system).
type Event struct {
	Op    EventOp
	Table string
	RID   int64
	New   Row // appended or replacement row (nil otherwise)
	Old   Row // deleted or replaced row; retrieved row for EvRetrieve
}

// EventListener observes operations within the transaction that performed
// them. Returning an error aborts the operation.
type EventListener func(tx *Txn, ev Event) error

// DB is the database: named tables, user-defined functions, and event
// listeners. A single coarse lock serializes transactions (the paper's
// workload is catalog-sized).
type DB struct {
	// catMu guards the catalog maps (short critical sections, safe to take
	// inside a transaction).
	catMu sync.RWMutex
	// txnMu serializes transactions and DDL; it is held for a transaction's
	// whole lifetime, making transactions trivially serializable.
	txnMu     sync.Mutex
	tables    map[string]*Table
	funcs     map[string]UserFunc
	listeners []EventListener
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*Table{}, funcs: map[string]UserFunc{}}
}

// RegisterFunc declares a user-defined function. Re-registering a name
// replaces it.
func (db *DB) RegisterFunc(f UserFunc) error {
	if f.Name == "" || f.Fn == nil {
		return fmt.Errorf("store: user function needs a name and a body")
	}
	db.catMu.Lock()
	defer db.catMu.Unlock()
	db.funcs[strings.ToLower(f.Name)] = f
	return nil
}

// Func resolves a user-defined function.
func (db *DB) Func(name string) (UserFunc, bool) {
	db.catMu.RLock()
	defer db.catMu.RUnlock()
	f, ok := db.funcs[strings.ToLower(name)]
	return f, ok
}

// CallFunc invokes a user-defined function with arity checking.
func (db *DB) CallFunc(name string, args []Value) (Value, error) {
	f, ok := db.Func(name)
	if !ok {
		return Null, fmt.Errorf("store: unknown function %q", name)
	}
	if len(args) < f.MinArgs || (f.MaxArgs >= 0 && len(args) > f.MaxArgs) {
		return Null, fmt.Errorf("store: function %q called with %d args", name, len(args))
	}
	return f.Fn(args)
}

// AddListener registers an event listener (used by the rule system).
func (db *DB) AddListener(l EventListener) {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	db.listeners = append(db.listeners, l)
}

// CreateTable adds a new, empty table.
func (db *DB) CreateTable(name string, schema Schema) error {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	db.catMu.Lock()
	defer db.catMu.Unlock()
	key := strings.ToLower(name)
	if key == "" {
		return fmt.Errorf("store: empty table name")
	}
	if _, ok := db.tables[key]; ok {
		return fmt.Errorf("store: table %q already exists", name)
	}
	db.tables[key] = newTable(name, schema)
	return nil
}

// DropTable removes a table and its data.
func (db *DB) DropTable(name string) error {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	db.catMu.Lock()
	defer db.catMu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; !ok {
		return fmt.Errorf("store: no table %q", name)
	}
	delete(db.tables, key)
	return nil
}

// Table resolves a table by name. A short ASCII name is lowercased into a
// stack buffer, so the lookup allocates nothing.
func (db *DB) Table(name string) (*Table, bool) {
	var buf [64]byte
	key := buf[:0]
	for i := 0; i < len(name) && len(name) <= len(buf) && name[i] < 0x80; i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		key = append(key, c)
	}
	if len(key) < len(name) {
		key = []byte(strings.ToLower(name))
	}
	db.catMu.RLock()
	defer db.catMu.RUnlock()
	t, ok := db.tables[string(key)]
	return t, ok
}

// TableNames lists tables in sorted order.
func (db *DB) TableNames() []string {
	db.catMu.RLock()
	defer db.catMu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// CreateIndex builds a B-tree index on a column of an existing table.
func (db *DB) CreateIndex(table, col string) error {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	db.catMu.RLock()
	t, ok := db.tables[strings.ToLower(table)]
	db.catMu.RUnlock()
	if !ok {
		return fmt.Errorf("store: no table %q", table)
	}
	ci := t.Schema.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("store: table %s has no column %q", table, col)
	}
	if t.Schema.Cols[ci].Type == TCalendar {
		return fmt.Errorf("store: calendar columns are not indexable")
	}
	return t.addIndex(col)
}
