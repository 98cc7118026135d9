package store

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

// The reference encoder: Save as it was written with fmt, one Fprintf per
// escaped byte. The appending encoder must reproduce its bytes exactly.

func referenceSave(db *DB, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, snapshotMagic)
	for _, name := range db.TableNames() {
		t, _ := db.Table(name)
		fmt.Fprintf(bw, "table %s %d\n", escape(t.Name), len(t.Schema.Cols))
		for _, c := range t.Schema.Cols {
			fmt.Fprintf(bw, "col %s %s\n", escape(c.Name), c.Type)
		}
		for _, col := range t.indexColumns() {
			fmt.Fprintf(bw, "index %s\n", escape(col))
		}
		var rowErr error
		t.Scan(func(_ int64, row Row) bool {
			bw.WriteString("row")
			for _, v := range row {
				field, err := encodeValue(v)
				if err != nil {
					rowErr = err
					return false
				}
				bw.WriteByte(' ')
				bw.WriteString(field)
			}
			bw.WriteByte('\n')
			return true
		})
		if rowErr != nil {
			return rowErr
		}
		fmt.Fprintln(bw, "end")
	}
	return bw.Flush()
}

// encodeValue renders a value as <type>:<escaped payload>.
func encodeValue(v Value) (string, error) {
	switch v.T {
	case TNull:
		return "null:", nil
	case TInt:
		return "int:" + strconv.FormatInt(v.I, 10), nil
	case TFloat:
		return "float:" + strconv.FormatFloat(v.F, 'g', -1, 64), nil
	case TText:
		return "text:" + escape(v.S), nil
	case TBool:
		return "bool:" + strconv.FormatBool(v.B), nil
	case TDate:
		return "date:" + v.D.String(), nil
	case TInterval:
		return fmt.Sprintf("interval:%d,%d", v.Iv.Lo, v.Iv.Hi), nil
	case TCalendar:
		if v.Cal == nil {
			return "calendar:", nil
		}
		return fmt.Sprintf("calendar:%s%s", v.Cal.Granularity(), escape(v.Cal.String())), nil
	}
	return "", fmt.Errorf("store: cannot encode type %v", v.T)
}

// escape percent-encodes spaces, percent signs, braces and control bytes so
// fields stay whitespace-free single tokens.
func escape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c == '%' || c == '{' || c == '}' || c == 0x7f {
			fmt.Fprintf(&b, "%%%02X", c)
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}

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

// garbageSnapshots are corrupt snapshots Load must reject; they also seed
// FuzzSnapshotLoad.
var garbageSnapshots = map[string]string{
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
	"bool not a bool": "calsysdb 1\ntable t 1\ncol v bool\nrow bool:true\nrow bool:yes\nend",
	"bool as a digit": "calsysdb 1\ntable t 1\ncol v bool\nrow bool:true\nrow bool:1\nend",
	"null payload":    "calsysdb 1\ntable t 1\ncol v bool\nrow bool:true\nrow null:x\nend",
}

func TestLoadRejectsGarbage(t *testing.T) {
	for name, snap := range garbageSnapshots {
		db := NewDB()
		if err := db.Load(strings.NewReader(snap)); err == nil {
			t.Errorf("%s: Load should fail", name)
		}
	}
	// A bool or null payload Save never writes is named at its line.
	for _, name := range []string{"bool not a bool", "bool as a digit", "null payload"} {
		err := NewDB().Load(strings.NewReader(garbageSnapshots[name]))
		if err == nil || !strings.HasPrefix(err.Error(), "store: snapshot line 5: field 1: malformed") {
			t.Errorf("%s: Load error %v, want a malformed field at snapshot line 5", name, err)
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

// Listeners registered before Load see one append event per loaded row, and a
// listener error fails Load with that table's rows rolled back.
func TestLoadFiresAppendEvents(t *testing.T) {
	snap := "calsysdb 1\ntable t 1\ncol v int\nrow int:1\nrow int:2\nrow int:3\nend\n"
	db := NewDB()
	var seen []int64
	db.AddListener(func(tx *Txn, ev Event) error {
		seen = append(seen, ev.New[0].I)
		return nil
	})
	if err := db.Load(strings.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != "[1 2 3]" {
		t.Errorf("append events saw %v, want [1 2 3]", seen)
	}
	refusing := NewDB()
	refusing.AddListener(func(tx *Txn, ev Event) error {
		if ev.RID == 1 {
			return fmt.Errorf("refused")
		}
		return nil
	})
	if err := refusing.Load(strings.NewReader(snap)); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("Load error %v, want the listener's", err)
	}
	tab, ok := refusing.Table("t")
	if !ok {
		t.Fatal("table t missing after a refused load")
	}
	if tab.Len() != 0 {
		t.Errorf("%d rows left after a refused load, want 0", tab.Len())
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
