package chronology

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestRataKnownDates(t *testing.T) {
	cases := []struct {
		c    Civil
		rata int64
	}{
		{Civil{1970, 1, 1}, 0},
		{Civil{1970, 1, 2}, 1},
		{Civil{1969, 12, 31}, -1},
		{Civil{2000, 3, 1}, 11017},
		{Civil{1987, 1, 1}, 6209},
		{Civil{1600, 1, 1}, -135140},
	}
	for _, tc := range cases {
		if got := tc.c.Rata(); got != tc.rata {
			t.Errorf("Rata(%v) = %d, want %d", tc.c, got, tc.rata)
		}
		if got := CivilFromRata(tc.rata); got != tc.c {
			t.Errorf("CivilFromRata(%d) = %v, want %v", tc.rata, got, tc.c)
		}
	}
}

func TestRataRoundTripProperty(t *testing.T) {
	f := func(z int32) bool {
		r := int64(z)
		return CivilFromRata(r).Rata() == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestCivilRoundTripProperty(t *testing.T) {
	f := func(yRaw int16, mRaw, dRaw uint8) bool {
		y := int(yRaw)
		m := int(mRaw)%12 + 1
		d := int(dRaw)%DaysInMonth(y, m) + 1
		c := Civil{Year: y, Month: m, Day: d}
		return CivilFromRata(c.Rata()) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestRataMonotoneProperty(t *testing.T) {
	f := func(z int32) bool {
		r := int64(z)
		return CivilFromRata(r).Before(CivilFromRata(r + 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWeekdays(t *testing.T) {
	cases := []struct {
		c Civil
		w Weekday
	}{
		{Civil{1970, 1, 1}, Thursday},
		{Civil{1993, 1, 1}, Friday}, // anchors the paper's WEEKS-1993 example
		{Civil{1987, 1, 1}, Thursday},
		{Civil{1992, 12, 28}, Monday},
		{Civil{2026, 7, 4}, Saturday},
	}
	for _, tc := range cases {
		if got := tc.c.Weekday(); got != tc.w {
			t.Errorf("%v.Weekday() = %v, want %v", tc.c, got, tc.w)
		}
	}
}

func TestIsLeap(t *testing.T) {
	for y, want := range map[int]bool{2000: true, 1900: false, 1988: true, 1993: false, 2024: true, 2100: false} {
		if got := IsLeap(y); got != want {
			t.Errorf("IsLeap(%d) = %v, want %v", y, got, want)
		}
	}
}

func TestDaysInMonth(t *testing.T) {
	if got := DaysInMonth(1988, 2); got != 29 {
		t.Errorf("DaysInMonth(1988,2) = %d, want 29", got)
	}
	if got := DaysInMonth(1987, 2); got != 28 {
		t.Errorf("DaysInMonth(1987,2) = %d, want 28", got)
	}
	if got := DaysInMonth(1987, 13); got != 0 {
		t.Errorf("DaysInMonth(1987,13) = %d, want 0", got)
	}
}

func TestCivilValid(t *testing.T) {
	valid := []Civil{{1987, 1, 1}, {1988, 2, 29}, {0, 12, 31}}
	invalid := []Civil{{1987, 2, 29}, {1987, 0, 1}, {1987, 1, 0}, {1987, 13, 1}, {1987, 1, 32}}
	for _, c := range valid {
		if !c.Valid() {
			t.Errorf("%v should be valid", c)
		}
	}
	for _, c := range invalid {
		if c.Valid() {
			t.Errorf("%v should be invalid", c)
		}
	}
}

func TestParseCivil(t *testing.T) {
	cases := map[string]Civil{
		"1987-01-01":      {1987, 1, 1},
		"Jan 1, 1987":     {1987, 1, 1},
		"January 3, 1992": {1992, 1, 3},
		"Dec 31 1993":     {1993, 12, 31},
		"1993-1-1":        {1993, 1, 1},
	}
	for s, want := range cases {
		got, err := ParseCivil(s)
		if err != nil {
			t.Errorf("ParseCivil(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParseCivil(%q) = %v, want %v", s, got, want)
		}
	}
	for _, bad := range []string{"", "1987-02-30", "Smarch 1, 1987", "yesterday", "1987/01/01"} {
		if _, err := ParseCivil(bad); err == nil {
			t.Errorf("ParseCivil(%q) should fail", bad)
		}
	}
}

func TestAddDays(t *testing.T) {
	c := Civil{1987, 1, 1}
	if got := c.AddDays(365); got != (Civil{1988, 1, 1}) {
		t.Errorf("AddDays(365) = %v", got)
	}
	if got := c.AddDays(-1); got != (Civil{1986, 12, 31}) {
		t.Errorf("AddDays(-1) = %v", got)
	}
}

func TestFloorDivMod(t *testing.T) {
	cases := []struct{ a, b, q, m int64 }{
		{7, 3, 2, 1}, {-7, 3, -3, 2}, {7, 7, 1, 0}, {-7, 7, -1, 0}, {0, 5, 0, 0}, {-1, 86400, -1, 86399},
	}
	for _, tc := range cases {
		if q := floorDiv(tc.a, tc.b); q != tc.q {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", tc.a, tc.b, q, tc.q)
		}
		if m := floorMod(tc.a, tc.b); m != tc.m {
			t.Errorf("floorMod(%d,%d) = %d, want %d", tc.a, tc.b, m, tc.m)
		}
	}
}

func TestMonthName(t *testing.T) {
	if MonthName(1) != "January" || MonthName(12) != "December" {
		t.Error("month names wrong")
	}
	if MonthName(0) == "January" {
		t.Error("month 0 must not map to January")
	}
}

func TestParseGranularity(t *testing.T) {
	cases := map[string]Granularity{
		"DAYS": Day, "days": Day, "DAY": Day, "WEEKS": Week, "CENTURY": Century,
		"centuries": Century, "sec": Second, "MINUTES": Minute, "hrs": Hour,
		"MONTHS": Month, "YEARS": Year, "DECADES": Decade,
	}
	for s, want := range cases {
		got, err := ParseGranularity(s)
		if err != nil {
			t.Errorf("ParseGranularity(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParseGranularity(%q) = %v, want %v", s, got, want)
		}
	}
	if _, err := ParseGranularity("fortnights"); err == nil {
		t.Error("ParseGranularity(fortnights) should fail")
	}
}

func TestGranularityOrdering(t *testing.T) {
	gs := Granularities()
	if len(gs) != 9 {
		t.Fatalf("expected 9 basic granularities, got %d", len(gs))
	}
	for i := 1; i < len(gs); i++ {
		if !gs[i-1].Finer(gs[i]) || !gs[i].Coarser(gs[i-1]) {
			t.Errorf("%v should be finer than %v", gs[i-1], gs[i])
		}
	}
	if Granularity(99).Valid() {
		t.Error("granularity 99 should be invalid")
	}
}

// TestAppendCivilMatchesSprintf pins AppendCivil and Civil.String to the
// "%04d-%02d-%02d" rendering they replaced, over every year −10 000…20 000
// (negative and 5-digit years included) and every month, and proves valid
// dates still round-trip through ParseCivil.
func TestAppendCivilMatchesSprintf(t *testing.T) {
	check := func(c Civil, roundTrip bool) {
		t.Helper()
		want := fmt.Sprintf("%04d-%02d-%02d", c.Year, c.Month, c.Day)
		if got := c.String(); got != want {
			t.Fatalf("%+v: String() = %q, want %q", c, got, want)
		}
		if got := string(AppendCivil([]byte("x"), c)); got != "x"+want {
			t.Fatalf("%+v: AppendCivil = %q, want %q", c, got, "x"+want)
		}
		if !roundTrip {
			return
		}
		if back, err := ParseCivil(want); err != nil || back != c {
			t.Fatalf("ParseCivil(%q) = %+v, %v; want %+v", want, back, err, c)
		}
	}
	for y := -10000; y <= 20000; y++ {
		for m := 1; m <= 12; m++ {
			check(Civil{y, m, 1}, true)
			check(Civil{y, m, DaysInMonth(y, m)}, true)
		}
	}
	// Values no date has (or ParseCivil cannot read back) still render as fmt
	// rendered them.
	for _, c := range []Civil{{}, {0, 0, 0}, {1993, -1, 5}, {1993, 100, 123}, {-5, 13, -40},
		{math.MaxInt64, 1, 1}, {math.MinInt64, 1, 1}} {
		check(c, false)
	}
}
