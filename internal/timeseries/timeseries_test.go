package timeseries

import (
	"math"
	"testing"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/store"
)

func d(y, m, day int) chronology.Civil { return chronology.Civil{Year: y, Month: m, Day: day} }

func mgr(t testing.TB) *caldb.Manager {
	t.Helper()
	m, err := caldb.New(store.NewDB(), chronology.MustNew(chronology.DefaultEpoch))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The GNP motivation of §1: a quarterly series stores only values; the
// valid time points — the last day of every quarter — are generated from the
// calendar expression on request.
func TestQuarterlyGNP(t *testing.T) {
	m := mgr(t)
	gnp, err := NewRegular(m, "GNP", "[n]/DAYS:during:caloperate(MONTHS, 3)", d(1987, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Eight quarters of observations (1987-1988).
	gnp.Append(4500, 4520, 4555, 4600, 4610, 4650, 4700, 4755)
	obs, err := gnp.Observations()
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 8 {
		t.Fatalf("observations = %d", len(obs))
	}
	ch := m.Chron()
	wantEnds := []chronology.Civil{
		d(1987, 3, 31), d(1987, 6, 30), d(1987, 9, 30), d(1987, 12, 31),
		d(1988, 3, 31), d(1988, 6, 30), d(1988, 9, 30), d(1988, 12, 31),
	}
	for i, o := range obs {
		if got := ch.CivilOfDayTick(o.Span.Lo); got != wantEnds[i] {
			t.Errorf("obs %d valid at %v, want %v", i, got, wantEnds[i])
		}
	}
	// Point lookup through generated valid time.
	v, ok, err := gnp.At(d(1987, 6, 30))
	if err != nil || !ok || v != 4520 {
		t.Errorf("At(1987-06-30) = %v,%v,%v", v, ok, err)
	}
	if _, ok, _ := gnp.At(d(1987, 6, 29)); ok {
		t.Error("no observation is valid on a non-quarter-end day")
	}
}

func TestSliceAndSpanOf(t *testing.T) {
	m := mgr(t)
	s, err := NewRegular(m, "EOM", "[n]/DAYS:during:MONTHS", d(1987, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Append(1, 2, 3, 4, 5, 6)
	got, err := s.Slice(d(1987, 2, 1), d(1987, 4, 30))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Value != 2 || got[2].Value != 4 {
		t.Errorf("slice = %v", got)
	}
}

func TestHorizonGrowth(t *testing.T) {
	m := mgr(t)
	// Yearly observations: the initial 366-day horizon must auto-extend to
	// cover ten years of spans.
	s, err := NewRegular(m, "ANNUAL", "[n]/DAYS:during:YEARS", d(1987, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Append(float64(i))
	}
	obs, err := s.Observations()
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 10 {
		t.Fatalf("observations = %d", len(obs))
	}
	if got := m.Chron().CivilOfDayTick(obs[9].Span.Lo); got != d(1996, 12, 31) {
		t.Errorf("10th year end = %v", got)
	}
}

func TestAggregateTo(t *testing.T) {
	m := mgr(t)
	// Monthly series aggregated to quarters.
	s, err := NewRegular(m, "SALES", "[n]/DAYS:during:MONTHS", d(1987, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Append(10, 20, 30, 40, 50, 60)
	q, err := s.AggregateTo("caloperate(MONTHS, 3)", Sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 2 || q[0].Value != 60 || q[1].Value != 150 {
		t.Errorf("quarterly sums = %v", q)
	}
	qm, err := s.AggregateTo("caloperate(MONTHS, 3)", Mean)
	if err != nil {
		t.Fatal(err)
	}
	if qm[0].Value != 20 || qm[1].Value != 50 {
		t.Errorf("quarterly means = %v", qm)
	}
	ql, err := s.AggregateTo("caloperate(MONTHS, 3)", Last)
	if err != nil {
		t.Fatal(err)
	}
	if ql[0].Value != 30 || ql[1].Value != 60 {
		t.Errorf("quarterly last = %v", ql)
	}
	qx, err := s.AggregateTo("caloperate(MONTHS, 3)", Max)
	if err != nil {
		t.Fatal(err)
	}
	if qx[0].Value != 30 || qx[1].Value != 60 {
		t.Errorf("quarterly max = %v", qx)
	}
}

// Future work (a) of §6: the pattern {S_t < Next(S_t)} as a calendar of
// time points.
func TestSelectPattern(t *testing.T) {
	m := mgr(t)
	s, err := NewRegular(m, "CLOSE", "DAYS", d(1987, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Append(100, 101, 99, 102, 103, 103, 101)
	cal, idx, err := s.SelectPattern(Increase)
	if err != nil {
		t.Fatal(err)
	}
	// Increases start at indices 0 (100<101), 2 (99<102), 3 (102<103).
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 2 || idx[2] != 3 {
		t.Errorf("increase indices = %v", idx)
	}
	if cal.String() != "{(1,1),(3,3),(4,4)}" {
		t.Errorf("increase calendar = %v", cal)
	}
	_, idx, err = s.SelectPattern(TwoDayRise)
	if err != nil {
		t.Fatal(err)
	}
	// Two successive increases start at index 2 (99<102<103).
	if len(idx) != 1 || idx[0] != 2 {
		t.Errorf("two-day rise indices = %v", idx)
	}
	_, idx, err = s.SelectPattern(Decrease)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 { // 101>99, 103>101
		t.Errorf("decrease indices = %v", idx)
	}
	if _, _, err := s.SelectPattern(Pattern{}); err == nil {
		t.Error("invalid pattern should fail")
	}
}

func TestErrors(t *testing.T) {
	m := mgr(t)
	if _, err := NewRegular(m, "X", "][", d(1987, 1, 1)); err == nil {
		t.Error("bad calendar expression should fail")
	}
	if _, err := NewRegular(m, "X", "DAYS", chronology.Civil{Year: 1987, Month: 2, Day: 30}); err == nil {
		t.Error("invalid start date should fail")
	}
	// A calendar producing no points within any horizon.
	s, err := NewRegular(m, "Y", "DAYS:during:interval(-10, -5)", d(1987, 1, 1))
	if err == nil {
		s.Append(1)
		if _, err := s.Observations(); err == nil {
			t.Error("series with too few points should fail")
		}
	}
}

func TestAggHelpers(t *testing.T) {
	vs := []float64{1, 2, 3, 4}
	if Mean(vs) != 2.5 || Sum(vs) != 10 || Last(vs) != 4 || Max(vs) != 4 {
		t.Error("aggregation helpers wrong")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("Max of empty is -inf")
	}
}
