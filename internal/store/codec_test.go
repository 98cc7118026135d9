package store

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

// fleetFixture is the checkpoint of a small rule fleet (10 rules over the
// first fleet expressions, 10 probe days), as the root package's
// checkpointFleet builds it: RULE_INFO with escaped plan texts, RULE_TIME
// with two indexes, FIRED rows. It is small so that fuzzing can minimize
// inputs derived from it.
func fleetFixture(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile("testdata/fleet.snap")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func saved(tb testing.TB, db *DB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sameValue is value identity as a snapshot sees it: the same type and the
// same payload, NaN equal to NaN and -0 distinct from 0.
func sameValue(a, b Value) bool {
	switch {
	case a.T != b.T:
		return false
	case a.T == TFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F) || (math.IsNaN(a.F) && math.IsNaN(b.F))
	case a.T == TCalendar:
		return (a.Cal == nil) == (b.Cal == nil) && (a.Cal == nil || a.Cal.Equal(b.Cal))
	}
	return Equal(a, b)
}

// sameRows fails tb at the first value that differs between two databases.
func sameRows(tb testing.TB, a, b *DB) {
	tb.Helper()
	names := a.TableNames()
	if got := b.TableNames(); strings.Join(got, "\x00") != strings.Join(names, "\x00") {
		tb.Fatalf("tables %q, want %q", got, names)
	}
	for _, name := range names {
		ta, _ := a.Table(name)
		tbl, _ := b.Table(name)
		var ra, rb []Row
		ta.Scan(func(_ int64, r Row) bool { ra = append(ra, r); return true })
		tbl.Scan(func(_ int64, r Row) bool { rb = append(rb, r); return true })
		if len(ra) != len(rb) {
			tb.Fatalf("table %s: %d rows, want %d", name, len(rb), len(ra))
		}
		for i := range ra {
			for c := range ra[i] {
				if !sameValue(ra[i][c], rb[i][c]) {
					tb.Fatalf("table %s row %d col %d: %v, want %v", name, i, c, rb[i][c], ra[i][c])
				}
			}
		}
	}
}

// The fleet checkpoint loads and saves back to itself, index lines included.
func TestFleetFixtureFixedPoint(t *testing.T) {
	snap := fleetFixture(t)
	db := NewDB()
	if err := db.Load(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved(t, db), snap) {
		t.Fatal("Save after Load differs from the fleet snapshot")
	}
	if tab, _ := db.Table("RULE_TIME"); !tab.HasIndex("name") || !tab.HasIndex("next_trigger") {
		t.Fatal("RULE_TIME's indexes were not rebuilt")
	}
}

// snapText draws a string over the bytes the escaper treats specially (the
// escaped set, its neighbours, bytes >= 0x80) mixed with plain letters.
func snapText(r *rand.Rand) string {
	const special = " %{}\t\n\r\x00\x1f\x7f\x80\xff!~:,()[]"
	b := make([]byte, r.Intn(24))
	for i := range b {
		if r.Intn(3) == 0 {
			b[i] = special[r.Intn(len(special))]
		} else {
			b[i] = byte('a' + r.Intn(26))
		}
	}
	return string(b)
}

func snapCalendar(tb testing.TB, r *rand.Rand) *calendar.Calendar {
	tb.Helper()
	gran := []chronology.Granularity{chronology.Day, chronology.Week, chronology.Month, chronology.Year}[r.Intn(4)]
	order1 := func() *calendar.Calendar {
		var ivs []interval.Interval
		lo := int64(r.Intn(400) - 200)
		for n := r.Intn(5); n > 0; n-- {
			hi := lo + int64(r.Intn(5))
			if lo < 0 && hi >= 0 {
				hi = -1
			}
			if lo == 0 {
				lo, hi = 1, hi+1
			}
			ivs = append(ivs, interval.Must(lo, hi))
			lo = hi + 1 + int64(r.Intn(10))
			if lo == 0 {
				lo = 1
			}
		}
		return calendar.MustFromIntervals(gran, ivs...)
	}
	switch r.Intn(3) {
	case 0:
		return order1()
	case 1: // order 2
		subs := []*calendar.Calendar{order1(), order1()}
		c, err := calendar.FromSubs(subs)
		if err != nil {
			tb.Fatal(err)
		}
		return c
	}
	// Leaves in predicate order, as a descending selection stores them.
	c, err := calendar.Select(calendar.SelectList(3, 1), calendar.MustFromIntervals(gran,
		interval.Must(1, 1), interval.Must(2, 2), interval.Must(3, 3)))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func snapValue(tb testing.TB, r *rand.Rand, t Type) Value {
	if r.Intn(8) == 0 {
		return Null
	}
	switch t {
	case TInt:
		return NewInt(r.Int63() - r.Int63())
	case TFloat:
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
			math.SmallestNonzeroFloat64, math.MaxFloat64, 1e21, 1e-7, 0.1}
		if r.Intn(2) == 0 {
			return NewFloat(specials[r.Intn(len(specials))])
		}
		return NewFloat(r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)))
	case TText:
		return NewText(snapText(r))
	case TBool:
		return NewBool(r.Intn(2) == 0)
	case TDate:
		years := []int{1, 999, 1987, 1993, 2024, 9999, 12345}
		y := years[r.Intn(len(years))]
		m := 1 + r.Intn(12)
		return NewDate(chronology.Civil{Year: y, Month: m, Day: 1 + r.Intn(chronology.DaysInMonth(y, m))})
	case TInterval:
		lo := r.Int63n(1<<40) + 1
		if r.Intn(2) == 0 {
			return NewInterval(interval.Must(-lo-r.Int63n(1000), -lo))
		}
		return NewInterval(interval.Must(lo, lo+r.Int63n(1000)))
	case TCalendar:
		if r.Intn(6) == 0 {
			return Value{T: TCalendar}
		}
		return NewCalendar(snapCalendar(tb, r))
	}
	tb.Fatalf("no generator for %v", t)
	return Null
}

// The appending encoder writes exactly the reference encoder's bytes, over
// random rows of every type and random table and column names; what it
// writes loads back to the same rows.
func TestSaveMatchesReferenceEncoder(t *testing.T) {
	types := []Type{TInt, TFloat, TText, TBool, TDate, TInterval, TCalendar}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := NewDB()
		for tno := 0; tno < 3; tno++ {
			cols := make([]Column, 0, len(types))
			for i, typ := range types {
				cols = append(cols, Column{Name: snapText(r) + string(rune('a'+i)), Type: typ})
			}
			name := snapText(r) + string(rune('A'+tno))
			if err := db.CreateTable(name, mustSchema(t, cols...)); err != nil {
				t.Fatal(err)
			}
			// Several indexes, so their lines' order is exercised.
			for i, c := range cols {
				if c.Type != TCalendar && r.Intn(2) == 0 {
					if err := db.CreateIndex(name, cols[i].Name); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := db.RunTxn(func(tx *Txn) error {
				for n := r.Intn(30); n > 0; n-- {
					row := make(Row, len(cols))
					for i, c := range cols {
						row[i] = snapValue(t, r, c.Type)
					}
					if _, err := tx.Append(name, row); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		got := saved(t, db)
		var want bytes.Buffer
		if err := referenceSave(db, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("seed %d: Save differs from the reference encoder\n got %q\nwant %q", seed, got, want.Bytes())
		}
		fresh := NewDB()
		if err := fresh.Load(bytes.NewReader(got)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameRows(t, db, fresh)
	}
}

// FuzzSnapshotLoad: for any bytes Load returns or errors, never panics; a
// snapshot it accepts saves to a fixed point (saving what that save loads
// gives the same bytes) and reloads to the same rows.
func FuzzSnapshotLoad(f *testing.F) {
	for _, snap := range garbageSnapshots {
		f.Add([]byte(snap))
	}
	f.Add(fleetFixture(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		db := NewDB()
		if err := db.Load(bytes.NewReader(data)); err != nil {
			return
		}
		first := saved(t, db)
		again := NewDB()
		if err := again.Load(bytes.NewReader(first)); err != nil {
			t.Fatalf("a saved snapshot does not load: %v\n%q", err, first)
		}
		if second := saved(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-save is not a fixed point\nfirst  %q\nsecond %q", first, second)
		}
		sameRows(t, db, again)
	})
}
