package calsys

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"calsys/internal/store"
)

// The checkpoint of a durable DBCRON is a store snapshot of the whole
// database: RULE-INFO (one eval-plan text per rule), RULE-TIME (indexed on
// next_trigger and name), CALENDARS and the application's tables. These
// tests and benchmarks build that database the way calbench's cron_fleet
// workload does: a rule fleet over 50 expressions whose action appends one
// row to FIRED, advanced some virtual days.

// checkpointFleetExprs is calbench's fleet expression mix: mostly monthly
// day picks, plus weekly and week-of-month shapes.
func checkpointFleetExprs(distinct int) []string {
	exprs := make([]string, 0, distinct)
	for k := 1; len(exprs) < distinct && k <= 28; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d]/DAYS:during:MONTHS", k))
	}
	for k := 1; len(exprs) < distinct && k <= 7; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d]/DAYS:during:WEEKS", k))
	}
	for k := 1; len(exprs) < distinct && k <= 4; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d]/WEEKS:overlaps:MONTHS", k))
	}
	for k := 1; len(exprs) < distinct; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d,%d]/DAYS:during:MONTHS", k, k+14))
	}
	return exprs
}

// checkpointFleet opens a system at 1993-01-01, defines nRules rules over the
// 50 fleet expressions and advances the daemon days virtual days.
func checkpointFleet(tb testing.TB, nRules, days int) *System {
	tb.Helper()
	clock := NewVirtualClock(0)
	sys := MustOpen(WithClock(clock))
	clock.Set(sys.SecondsOf(MustDate(1993, 1, 1)))
	schema, err := store.NewSchema(Column{Name: "rule", Type: TText}, Column{Name: "at", Type: TInt})
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.DB().CreateTable("FIRED", schema); err != nil {
		tb.Fatal(err)
	}
	exprs := checkpointFleetExprs(50)
	defs := make([]TemporalRuleDef, nRules)
	for i := range defs {
		name := NewText(fmt.Sprintf("r%d", i))
		defs[i] = TemporalRuleDef{Name: fmt.Sprintf("r%d", i), CalExpr: exprs[i%len(exprs)],
			Action: FuncAction{Name: "sentinel", Fn: func(tx *Txn, _ *Event, at int64) error {
				_, err := tx.Append("FIRED", Row{name, NewInt(at)})
				return err
			}}}
	}
	if err := sys.OnCalendars(defs); err != nil {
		tb.Fatal(err)
	}
	cron, err := sys.StartDBCron(SecondsPerDay)
	if err != nil {
		tb.Fatal(err)
	}
	defer cron.Close()
	for d := 0; d < days; d++ {
		if _, err := cron.AdvanceTo(clock.Advance(SecondsPerDay)); err != nil {
			tb.Fatal(err)
		}
	}
	return sys
}

func saveBytes(tb testing.TB, db *DB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// A snapshot is a function of the database: two saves are byte-equal (the
// index lines of RULE-TIME's two indexes come out sorted, not in map order),
// and loading a snapshot and saving it again reproduces it.
func TestFleetSnapshotDeterministic(t *testing.T) {
	sys := checkpointFleet(t, 400, 20)
	first := saveBytes(t, sys.DB())
	for i := 0; i < 5; i++ {
		if again := saveBytes(t, sys.DB()); !bytes.Equal(first, again) {
			t.Fatalf("save %d differs from the first save", i+2)
		}
	}
	fresh := store.NewDB()
	if err := fresh.Load(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if resaved := saveBytes(t, fresh); !bytes.Equal(first, resaved) {
		t.Fatal("Save after Load differs from the snapshot loaded")
	}
	if !bytes.Contains(first, []byte("index name\nindex next_trigger\n")) {
		t.Error("RULE-TIME's index lines are not in sorted order")
	}
}

var fleetSnapshot = struct {
	once sync.Once
	sys  *System
	snap []byte
}{}

// fullFleetSnapshot is the cron_fleet checkpoint at its last period: 5 000
// rules, 45 probe days, 12 600 FIRED rows, about 2.4 MB of snapshot.
func fullFleetSnapshot(b *testing.B) (*System, []byte) {
	fleetSnapshot.once.Do(func() {
		fleetSnapshot.sys = checkpointFleet(b, 5000, 45)
		fleetSnapshot.snap = saveBytes(b, fleetSnapshot.sys.DB())
	})
	if fleetSnapshot.sys == nil {
		b.Fatal("fleet set-up failed in an earlier benchmark")
	}
	return fleetSnapshot.sys, fleetSnapshot.snap
}

// BenchmarkSnapshotSave is one checkpoint's encoding: the whole fleet
// database written to a buffer already grown to its size.
func BenchmarkSnapshotSave(b *testing.B) {
	sys, snap := fullFleetSnapshot(b)
	var buf bytes.Buffer
	buf.Grow(len(snap))
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := sys.DB().Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad is the store half of crash recovery: the fleet
// snapshot decoded into an empty database, indexes built.
func BenchmarkSnapshotLoad(b *testing.B) {
	_, snap := fullFleetSnapshot(b)
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.NewDB().Load(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
}
