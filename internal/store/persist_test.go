package store

import (
	"strings"
	"testing"
	"testing/quick"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

func snapshotRoundTrip(t *testing.T, db *DB) *DB {
	t.Helper()
	var buf strings.Builder
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewDB()
	if err := fresh.Load(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("Load: %v\nsnapshot:\n%s", err, buf.String())
	}
	return fresh
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := NewDB()
	schema := mustSchema(t,
		Column{"name", TText}, Column{"day", TDate}, Column{"score", TFloat},
		Column{"n", TInt}, Column{"ok", TBool}, Column{"span", TInterval},
		Column{"cal", TCalendar})
	if err := db.CreateTable("everything", schema); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("everything", "n"); err != nil {
		t.Fatal(err)
	}
	cal := calendar.MustFromIntervals(chronology.Day, interval.Must(-4, 3), interval.Must(4, 10))
	if err := db.RunTxn(func(tx *Txn) error {
		rows := []Row{
			{NewText("plain"), NewText("1993-01-15"), NewFloat(2.5), NewInt(-7), NewBool(true),
				NewInterval(interval.Must(1, 31)), NewCalendar(cal)},
			{NewText("tricky % { } \n text"), NewText("1988-02-29"), NewFloat(0), NewInt(0), NewBool(false),
				NewInterval(interval.Must(-10, -1)), Value{T: TCalendar}},
			{Null, Null, Null, Null, Null, Null, Null},
		}
		for _, r := range rows {
			if _, err := tx.Append("everything", r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	fresh := snapshotRoundTrip(t, db)
	tab, ok := fresh.Table("everything")
	if !ok || tab.Len() != 3 {
		t.Fatalf("restored table missing or wrong size")
	}
	if !tab.HasIndex("n") {
		t.Error("index not restored")
	}
	orig, _ := db.Table("everything")
	orig.Scan(func(rid int64, row Row) bool {
		got, ok := tab.Get(rid)
		if !ok {
			t.Errorf("row %d missing after restore", rid)
			return true
		}
		for i := range row {
			if !Equal(row[i], got[i]) {
				t.Errorf("row %d col %d: %v != %v", rid, i, row[i], got[i])
			}
		}
		return true
	})
	// The restored index works.
	rids, err := tab.LookupEq("n", NewInt(-7))
	if err != nil || len(rids) != 1 {
		t.Errorf("restored index lookup: %v, %v", rids, err)
	}
}

func TestSnapshotMultipleTables(t *testing.T) {
	db := NewDB()
	for _, name := range []string{"a", "b", "c"} {
		if err := db.CreateTable(name, mustSchema(t, Column{"v", TInt})); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RunTxn(func(tx *Txn) error {
		for i := 0; i < 5; i++ {
			if _, err := tx.Append("b", Row{NewInt(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	fresh := snapshotRoundTrip(t, db)
	if len(fresh.TableNames()) != 3 {
		t.Errorf("tables = %v", fresh.TableNames())
	}
	tb, _ := fresh.Table("b")
	if tb.Len() != 5 {
		t.Errorf("b rows = %d", tb.Len())
	}
	ta, _ := fresh.Table("a")
	if ta.Len() != 0 {
		t.Errorf("a rows = %d", ta.Len())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"bad magic":       "nope 9",
		"empty":           "",
		"truncated table": "calsysdb 1\ntable t 1\ncol v int\nrow int:1",
		"bad col count":   "calsysdb 1\ntable t x\n",
		"bad field":       "calsysdb 1\ntable t 1\ncol v int\nrow int:abc\nend",
		"wrong arity":     "calsysdb 1\ntable t 2\ncol v int\nend",
		"unknown type":    "calsysdb 1\ntable t 1\ncol v blob\nend",
		"stray line":      "calsysdb 1\ntable t 1\ncol v int\nfrobnicate\nend",
		"bad escape":      "calsysdb 1\ntable t 1\ncol v text\nrow text:%zz\nend",
		"bad date":        "calsysdb 1\ntable t 1\ncol v date\nrow date:1993-02-30\nend",
		"bad interval":    "calsysdb 1\ntable t 1\ncol v interval\nrow interval:5\nend",
		"zero interval":   "calsysdb 1\ntable t 1\ncol v interval\nrow interval:0,3\nend",
		"bad calendar":    "calsysdb 1\ntable t 1\ncol v calendar\nrow calendar:DAYSoops\nend",
	}
	for name, snap := range cases {
		db := NewDB()
		if err := db.Load(strings.NewReader(snap)); err == nil {
			t.Errorf("%s: Load should fail", name)
		}
	}
	// Load requires an empty database.
	db := NewDB()
	if err := db.CreateTable("t", Schema{Cols: []Column{{Name: "v", Type: TInt}}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(strings.NewReader("calsysdb 1\n")); err == nil {
		t.Error("Load into non-empty database should fail")
	}
}

func TestEscapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		got, err := unescape(escape(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Escaped strings never contain whitespace or structural characters.
	g := func(s string) bool {
		e := escape(s)
		return !strings.ContainsAny(e, " \t\n{}")
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestValueEncodeDecodeProperty(t *testing.T) {
	f := func(kind uint8, n int64, fl float64, s string, b bool) bool {
		var v Value
		switch kind % 6 {
		case 0:
			v = NewInt(n)
		case 1:
			v = NewFloat(fl)
		case 2:
			v = NewText(s)
		case 3:
			v = NewBool(b)
		case 4:
			v = Null
		case 5:
			lo := n % 10000
			if lo == 0 {
				lo = 1
			}
			hi := lo + int64(kind)
			if lo < 0 && hi >= 0 {
				hi = -1
			}
			iv, err := interval.New(lo, hi)
			if err != nil {
				return true // skip invalid
			}
			v = NewInterval(iv)
		}
		enc, err := encodeValue(v)
		if err != nil {
			return false
		}
		dec, err := decodeValue(enc)
		if err != nil {
			return false
		}
		if v.T == TFloat {
			return dec.T == TFloat && (dec.F == v.F || (dec.F != dec.F && v.F != v.F)) // NaN-safe
		}
		return Equal(v, dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestCalendarValueRoundTrip(t *testing.T) {
	// Order-2 calendars survive encoding.
	sub1 := calendar.MustFromIntervals(chronology.Week, interval.Must(1, 4))
	sub2 := calendar.MustFromIntervals(chronology.Week, interval.Must(5, 8), interval.Must(9, 9))
	o2, err := calendar.FromSubs([]*calendar.Calendar{sub1, sub2})
	if err != nil {
		t.Fatal(err)
	}
	// So does one whose leaves are in predicate order, not tick order: what a
	// descending selection stores.
	desc, err := calendar.Select(calendar.SelectList(3, 1), calendar.MustFromIntervals(chronology.Week,
		interval.Must(1, 1), interval.Must(2, 2), interval.Must(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*calendar.Calendar{o2, desc} {
		enc, err := encodeValue(NewCalendar(c))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decodeValue(enc)
		if err != nil {
			t.Fatalf("decoding %v: %v", c, err)
		}
		if !dec.Cal.Equal(c) {
			t.Errorf("round trip: %v != %v", dec.Cal, c)
		}
		if dec.Cal.Granularity() != chronology.Week {
			t.Errorf("granularity = %v", dec.Cal.Granularity())
		}
	}
}
