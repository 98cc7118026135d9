package store

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

func TestValueBasics(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(42), "42"},
		{NewFloat(2.5), "2.5"},
		{NewText("hi"), "hi"},
		{NewBool(true), "true"},
		{NewDate(chronology.Civil{Year: 1993, Month: 1, Day: 1}), "1993-01-01"},
		{NewInterval(interval.Must(1, 31)), "(1,31)"},
		{Null, "null"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", tc.v.T, got, tc.want)
		}
	}
	cal := calendar.MustFromIntervals(chronology.Day, interval.Must(1, 7))
	if got := NewCalendar(cal).String(); got != "{(1,7)}" {
		t.Errorf("calendar value = %q", got)
	}
	if !Null.IsNull() || NewInt(1).IsNull() {
		t.Error("IsNull wrong")
	}
}

func TestValueCompare(t *testing.T) {
	lt := [][2]Value{
		{NewInt(1), NewInt(2)},
		{NewInt(1), NewFloat(1.5)},
		{NewFloat(0.5), NewInt(1)},
		{NewText("a"), NewText("b")},
		{NewBool(false), NewBool(true)},
		{NewDate(chronology.Civil{Year: 1992, Month: 12, Day: 31}), NewDate(chronology.Civil{Year: 1993, Month: 1, Day: 1})},
		{NewInterval(interval.Must(1, 5)), NewInterval(interval.Must(1, 6))},
		{Null, NewInt(-100)},
	}
	for _, pair := range lt {
		c, err := Compare(pair[0], pair[1])
		if err != nil || c != -1 {
			t.Errorf("Compare(%v,%v) = %d,%v, want -1", pair[0], pair[1], c, err)
		}
		c, err = Compare(pair[1], pair[0])
		if err != nil || c != 1 {
			t.Errorf("Compare(%v,%v) = %d,%v, want 1", pair[1], pair[0], c, err)
		}
	}
	if c, err := Compare(NewInt(3), NewInt(3)); err != nil || c != 0 {
		t.Error("equal ints")
	}
	if _, err := Compare(NewInt(1), NewText("1")); err == nil {
		t.Error("cross-type comparison should fail")
	}
	if _, err := Compare(NewCalendar(nil), NewCalendar(nil)); err == nil {
		t.Error("calendars are not ordered")
	}
}

func TestValueEqualAndCoerce(t *testing.T) {
	c1 := calendar.MustFromIntervals(chronology.Day, interval.Must(1, 7))
	c2 := calendar.MustFromIntervals(chronology.Day, interval.Must(1, 7))
	if !Equal(NewCalendar(c1), NewCalendar(c2)) {
		t.Error("structurally equal calendars")
	}
	if Equal(NewCalendar(c1), NewInt(1)) {
		t.Error("calendar != int")
	}
	v, err := NewInt(3).CoerceTo(TFloat)
	if err != nil || v.F != 3 {
		t.Error("int->float coercion")
	}
	v, err = NewText("Jan 1, 1993").CoerceTo(TDate)
	if err != nil || v.D != (chronology.Civil{Year: 1993, Month: 1, Day: 1}) {
		t.Error("text->date coercion")
	}
	if _, err := NewText("not a date").CoerceTo(TDate); err == nil {
		t.Error("bad date coercion should fail")
	}
	if _, err := NewBool(true).CoerceTo(TInt); err == nil {
		t.Error("bool->int should fail")
	}
	if _, err := ParseType("float"); err != nil {
		t.Error("ParseType(float)")
	}
	if _, err := ParseType("null"); err == nil {
		t.Error("null is not a declarable type")
	}
}

func mustSchema(t *testing.T, cols ...Column) Schema {
	t.Helper()
	s, err := NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func stocksDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	schema := mustSchema(t,
		Column{"symbol", TText}, Column{"day", TDate}, Column{"price", TFloat})
	if err := db.CreateTable("stocks", schema); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{"a", TInt}, Column{"A", TText}); err == nil {
		t.Error("duplicate column (case-insensitive) should fail")
	}
	if _, err := NewSchema(Column{"", TInt}); err == nil {
		t.Error("empty column name should fail")
	}
	if _, err := NewSchema(Column{"a", TNull}); err == nil {
		t.Error("null-typed column should fail")
	}
	s := mustSchema(t, Column{"sym", TText}, Column{"px", TFloat})
	if s.ColIndex("PX") != 1 || s.ColIndex("nope") != -1 {
		t.Error("ColIndex wrong")
	}
}

func TestCRUDAndScan(t *testing.T) {
	db := stocksDB(t)
	var rid int64
	err := db.RunTxn(func(tx *Txn) error {
		var err error
		rid, err = tx.Append("stocks", Row{NewText("IBM"), NewText("1993-01-04"), NewFloat(50.25)})
		if err != nil {
			return err
		}
		_, err = tx.Append("stocks", Row{NewText("DEC"), NewText("1993-01-04"), NewFloat(33.5)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("stocks")
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	row, ok := tab.Get(rid)
	if !ok || row[0].S != "IBM" || row[1].T != TDate {
		t.Errorf("Get = %v (text date must coerce to TDate)", row)
	}
	// Replace and delete.
	err = db.RunTxn(func(tx *Txn) error {
		if err := tx.Replace("stocks", rid, Row{NewText("IBM"), NewText("1993-01-04"), NewFloat(51)}); err != nil {
			return err
		}
		return tx.Delete("stocks", rid+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Errorf("Len after delete = %d", tab.Len())
	}
	row, _ = tab.Get(rid)
	if row[2].F != 51 {
		t.Errorf("price after replace = %v", row[2])
	}
	if _, ok := tab.Get(rid + 1); ok {
		t.Error("deleted row still visible")
	}
}

func TestRollbackRestoresEverything(t *testing.T) {
	db := stocksDB(t)
	if err := db.CreateIndex("stocks", "symbol"); err != nil {
		t.Fatal(err)
	}
	var keepRid int64
	if err := db.RunTxn(func(tx *Txn) error {
		var err error
		keepRid, err = tx.Append("stocks", Row{NewText("IBM"), NewText("1993-01-04"), NewFloat(50)})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	if _, err := tx.Append("stocks", Row{NewText("DEC"), NewText("1993-01-05"), NewFloat(33)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Replace("stocks", keepRid, Row{NewText("IBM"), NewText("1993-01-05"), NewFloat(99)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("stocks", keepRid); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	tab, _ := db.Table("stocks")
	if tab.Len() != 1 {
		t.Fatalf("Len after rollback = %d", tab.Len())
	}
	row, ok := tab.Get(keepRid)
	if !ok || row[2].F != 50 || row[1].D.Day != 4 {
		t.Errorf("row after rollback = %v", row)
	}
	// Index must agree with the heap after rollback.
	rids, err := tab.LookupEq("symbol", NewText("IBM"))
	if err != nil || len(rids) != 1 || rids[0] != keepRid {
		t.Errorf("index after rollback = %v, %v", rids, err)
	}
	if rids, _ := tab.LookupEq("symbol", NewText("DEC")); len(rids) != 0 {
		t.Errorf("phantom DEC in index: %v", rids)
	}
}

func TestTxnLifecycleErrors(t *testing.T) {
	db := stocksDB(t)
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit should fail")
	}
	if err := tx.Rollback(); err == nil {
		t.Error("rollback after commit should fail")
	}
	if _, err := tx.Append("stocks", Row{NewText("X"), NewText("1993-01-01"), NewFloat(1)}); err == nil {
		t.Error("append on finished txn should fail")
	}
	if err := db.RunTxn(func(tx *Txn) error {
		_, err := tx.Append("nope", Row{})
		return err
	}); err == nil {
		t.Error("append to missing table should fail")
	}
	if err := db.RunTxn(func(tx *Txn) error {
		_, err := tx.Append("stocks", Row{NewText("X")})
		return err
	}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := db.RunTxn(func(tx *Txn) error {
		return tx.Delete("stocks", 12345)
	}); err == nil {
		t.Error("deleting a missing row should fail")
	}
}

func TestIndexedLookups(t *testing.T) {
	db := stocksDB(t)
	if err := db.CreateIndex("stocks", "price"); err != nil {
		t.Fatal(err)
	}
	if err := db.RunTxn(func(tx *Txn) error {
		for i := 0; i < 50; i++ {
			if _, err := tx.Append("stocks", Row{NewText("S"), NewText("1993-01-04"), NewFloat(float64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("stocks")
	if !tab.HasIndex("price") || tab.HasIndex("symbol") {
		t.Error("HasIndex wrong")
	}
	rids, err := tab.LookupEq("price", NewFloat(7))
	if err != nil || len(rids) != 1 {
		t.Errorf("LookupEq = %v, %v", rids, err)
	}
	lo, hi := NewFloat(10), NewFloat(19)
	rids, err = tab.LookupRange("price", &lo, &hi)
	if err != nil || len(rids) != 10 {
		t.Errorf("LookupRange = %d rids, %v", len(rids), err)
	}
	// Unindexed column falls back to a scan with identical semantics.
	rids2, err := tab.LookupRange("day", nil, nil)
	if err != nil || len(rids2) != 50 {
		t.Errorf("unindexed LookupRange = %d, %v", len(rids2), err)
	}
	if _, err := tab.LookupEq("nope", NewInt(1)); err == nil {
		t.Error("lookup on missing column should fail")
	}
}

// TestReplaceKeepsIndexesExact runs random transactions — appends, replaces
// that keep or change each indexed key, deletes, a quarter of them rolled
// back — and after each one requires every index to hold exactly the rids an
// index rebuilt from the live rows would hold under each key.
func TestReplaceKeepsIndexesExact(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("t", mustSchema(t, Column{"k", TInt}, Column{"s", TText}, Column{"v", TInt})); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"k", "s"} {
		if err := db.CreateIndex("t", col); err != nil {
			t.Fatal(err)
		}
	}
	tab, _ := db.Table("t")
	rng := rand.New(rand.NewSource(7))
	const keys = 6 // few keys, so rows share them and replaces often keep them
	keyOf := map[string]func(int) Value{
		"k": func(i int) Value { return NewInt(int64(i)) },
		"s": func(i int) Value { return NewText(string(rune('a' + i))) },
	}
	randRow := func() Row {
		return Row{keyOf["k"](rng.Intn(keys)), keyOf["s"](rng.Intn(keys)), NewInt(rng.Int63n(100))}
	}
	live := func() []int64 {
		var out []int64
		tab.Scan(func(rid int64, _ Row) bool { out = append(out, rid); return true })
		return out
	}
	sorted := func(rids []int64) []int64 {
		out := slices.Clone(rids)
		slices.Sort(out)
		return out
	}
	for n := 0; n < 600; n++ {
		tx := db.Begin()
		for op := 0; op < 1+rng.Intn(4); op++ {
			rids := live()
			var err error
			switch c := rng.Intn(10); {
			case c < 3 || len(rids) == 0:
				_, err = tx.Append("t", randRow())
			case c < 9:
				rid := rids[rng.Intn(len(rids))]
				row, _ := tab.Get(rid)
				next := randRow()
				if rng.Intn(2) == 0 {
					next[0] = row[0]
				}
				if rng.Intn(2) == 0 {
					next[1] = row[1]
				}
				err = tx.Replace("t", rid, next)
			default:
				err = tx.Delete("t", rids[rng.Intn(len(rids))])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		end := tx.Commit
		if rng.Intn(4) == 0 {
			end = tx.Rollback
		}
		if err := end(); err != nil {
			t.Fatal(err)
		}
		for ci, col := range []string{"k", "s"} {
			rebuilt := NewBTree()
			tab.Scan(func(rid int64, row Row) bool {
				if err := rebuilt.Insert(row[ci], rid); err != nil {
					t.Fatal(err)
				}
				return true
			})
			idx := tab.indexes[col].tree
			if err := idx.checkInvariants(); err != nil {
				t.Fatalf("txn %d: index %s: %v", n, col, err)
			}
			if idx.Len() != rebuilt.Len() {
				t.Fatalf("txn %d: index %s holds %d pairs, the rows %d", n, col, idx.Len(), rebuilt.Len())
			}
			for i := 0; i < keys; i++ {
				key := keyOf[col](i)
				got, err := tab.LookupEq(col, key)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := sorted(got), sorted(rebuilt.Lookup(key)); !slices.Equal(got, want) {
					t.Fatalf("txn %d: LookupEq(%s, %v) = %v, rebuilt index says %v", n, col, key, got, want)
				}
			}
		}
	}
}

func TestDDLValidation(t *testing.T) {
	db := stocksDB(t)
	if err := db.CreateTable("stocks", Schema{}); err == nil {
		t.Error("duplicate table should fail")
	}
	if err := db.CreateTable("", Schema{}); err == nil {
		t.Error("empty table name should fail")
	}
	if err := db.CreateIndex("stocks", "nope"); err == nil {
		t.Error("index on missing column should fail")
	}
	if err := db.CreateIndex("nope", "x"); err == nil {
		t.Error("index on missing table should fail")
	}
	if err := db.CreateIndex("stocks", "symbol"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("stocks", "symbol"); err == nil {
		t.Error("duplicate index should fail")
	}
	if err := db.DropTable("stocks"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("stocks"); err == nil {
		t.Error("double drop should fail")
	}
	names := db.TableNames()
	if len(names) != 0 {
		t.Errorf("TableNames = %v", names)
	}
	// Calendar columns exist but are not indexable.
	sch := mustSchema(t, Column{"name", TText}, Column{"vals", TCalendar})
	if err := db.CreateTable("cals", sch); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("cals", "vals"); err == nil {
		t.Error("calendar index should fail")
	}
}

func TestUserFunctions(t *testing.T) {
	db := NewDB()
	err := db.RegisterFunc(UserFunc{
		Name: "double", MinArgs: 1, MaxArgs: 1,
		Fn: func(args []Value) (Value, error) { return NewInt(args[0].I * 2), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.CallFunc("DOUBLE", []Value{NewInt(21)})
	if err != nil || v.I != 42 {
		t.Errorf("CallFunc = %v, %v", v, err)
	}
	if _, err := db.CallFunc("double", nil); err == nil {
		t.Error("arity check should fail")
	}
	if _, err := db.CallFunc("nope", nil); err == nil {
		t.Error("unknown function should fail")
	}
	if err := db.RegisterFunc(UserFunc{}); err == nil {
		t.Error("anonymous function should fail")
	}
}

func TestEventListeners(t *testing.T) {
	db := stocksDB(t)
	var events []string
	db.AddListener(func(tx *Txn, ev Event) error {
		events = append(events, ev.Op.String()+":"+ev.Table)
		return nil
	})
	err := db.RunTxn(func(tx *Txn) error {
		rid, err := tx.Append("stocks", Row{NewText("IBM"), NewText("1993-01-04"), NewFloat(50)})
		if err != nil {
			return err
		}
		if err := tx.Replace("stocks", rid, Row{NewText("IBM"), NewText("1993-01-04"), NewFloat(51)}); err != nil {
			return err
		}
		if err := tx.Retrieve("stocks", nil, func(int64, Row) bool { return true }); err != nil {
			return err
		}
		return tx.Delete("stocks", rid)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"append:stocks", "replace:stocks", "retrieve:stocks", "delete:stocks"}
	if strings.Join(events, ",") != strings.Join(want, ",") {
		t.Errorf("events = %v, want %v", events, want)
	}
}

// A listener whose action mutates the database participates in the same
// transaction — rollback undoes rule effects too.
func TestListenerActionsJoinTransaction(t *testing.T) {
	db := stocksDB(t)
	audit := mustSchema(t, Column{"msg", TText})
	if err := db.CreateTable("audit", audit); err != nil {
		t.Fatal(err)
	}
	db.AddListener(func(tx *Txn, ev Event) error {
		if ev.Op == EvAppend && ev.Table == "stocks" {
			_, err := tx.Append("audit", Row{NewText("stock added")})
			return err
		}
		return nil
	})
	tx := db.Begin()
	if _, err := tx.Append("stocks", Row{NewText("IBM"), NewText("1993-01-04"), NewFloat(50)}); err != nil {
		t.Fatal(err)
	}
	auditTab, _ := db.Table("audit")
	if auditTab.Len() != 1 {
		t.Fatalf("audit rows inside txn = %d", auditTab.Len())
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if auditTab.Len() != 0 {
		t.Errorf("audit rows after rollback = %d (rule effects must roll back)", auditTab.Len())
	}
}

// Rule recursion is bounded: a listener that re-appends to the same table
// must trip the depth guard instead of looping forever.
func TestListenerRecursionBounded(t *testing.T) {
	db := stocksDB(t)
	db.AddListener(func(tx *Txn, ev Event) error {
		if ev.Op == EvAppend && ev.Table == "stocks" {
			_, err := tx.Append("stocks", ev.New)
			return err
		}
		return nil
	})
	err := db.RunTxn(func(tx *Txn) error {
		_, err := tx.Append("stocks", Row{NewText("IBM"), NewText("1993-01-04"), NewFloat(50)})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Errorf("expected recursion error, got %v", err)
	}
	tab, _ := db.Table("stocks")
	if tab.Len() != 0 {
		t.Errorf("rows after aborted recursive txn = %d", tab.Len())
	}
}

func TestRetrieveWithFilterAndEvents(t *testing.T) {
	db := stocksDB(t)
	if err := db.RunTxn(func(tx *Txn) error {
		for i := 0; i < 10; i++ {
			if _, err := tx.Append("stocks", Row{NewText("S"), NewText("1993-01-04"), NewFloat(float64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	retrieves := 0
	db.AddListener(func(tx *Txn, ev Event) error {
		if ev.Op == EvRetrieve {
			retrieves++
		}
		return nil
	})
	var seen int
	if err := db.RunTxn(func(tx *Txn) error {
		return tx.Retrieve("stocks", func(r Row) bool { return r[2].F >= 5 }, func(int64, Row) bool {
			seen++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 5 || retrieves != 5 {
		t.Errorf("seen=%d retrieve events=%d, want 5 and 5", seen, retrieves)
	}
}

// A table resolves by name in any case; a short ASCII name allocates
// nothing, and a long or non-ASCII one goes through strings.ToLower.
func TestTableLookup(t *testing.T) {
	db := NewDB()
	schema, err := NewSchema(Column{Name: "x", Type: TInt})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("T", 65)
	for _, name := range []string{"RULE_TIME", "Ärger", long} {
		if err := db.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"RULE_TIME", "rule_time", "Rule_Time", "äRGER", strings.ToLower(long)} {
		if tab, ok := db.Table(name); !ok || !strings.EqualFold(tab.Name, name) {
			t.Errorf("Table(%q) = %v, %v", name, tab, ok)
		}
	}
	if _, ok := db.Table("RULE_TIMES"); ok {
		t.Error("Table(RULE_TIMES) resolved a table that does not exist")
	}
	if n := testing.AllocsPerRun(100, func() { db.Table("RULE_TIME") }); n != 0 {
		t.Errorf("Table(RULE_TIME) allocates %v times", n)
	}
}
