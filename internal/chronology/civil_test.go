package chronology

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
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

// A name that is not a basic calendar's — a catalog calendar such as bizdays,
// asked by every membership test — costs no allocation, and neither does a
// hit; the error ParseGranularity builds from a miss keeps its text. Both
// agree with the upper-casing definition on every name tried.
func TestLookupGranularityAllocsAndAgrees(t *testing.T) {
	names := []string{"bizdays", "holidays", " Holidays ", "DAYS", "days", "Week", "hrs",
		"centuries", "CENTURYS", "mins", "ſeconds", "ſecs", "Ⓓays", "", "S", "fortnights"}
	for _, n := range names {
		got, ok := LookupGranularity(n)
		want, wantOK := upperCaseDefinition(n)
		if ok != wantOK || ok && got != want {
			t.Errorf("LookupGranularity(%q) = %v, %v; the definition says %v, %v", n, got, ok, want, wantOK)
		}
	}
	for _, n := range []string{"bizdays", " Holidays ", "days", "WEEKS"} {
		if a := testing.AllocsPerRun(100, func() { LookupGranularity(n) }); a != 0 {
			t.Errorf("LookupGranularity(%q): %v allocs per run, want 0", n, a)
		}
	}
	if _, err := ParseGranularity("bizdays"); err == nil || err.Error() != `chronology: unknown granularity "bizdays"` {
		t.Errorf("ParseGranularity(bizdays) error = %v", err)
	}
}

// upperCaseDefinition is the name rule as it reads: upper-case the trimmed
// name, then match a granularity name with or without a trailing S, or an
// alias.
func upperCaseDefinition(name string) (Granularity, bool) {
	n := strings.ToUpper(strings.TrimSpace(name))
	for g, s := range granNames {
		if n == s || n+"S" == s || n == s+"S" {
			return Granularity(g), true
		}
	}
	switch n {
	case "SEC", "SECS":
		return Second, true
	case "MIN", "MINS":
		return Minute, true
	case "HR", "HRS":
		return Hour, true
	case "CENTURIES":
		return Century, true
	}
	return 0, false
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

// parseISOSplit is the body parseISO had before it read its fields in place —
// strings.Split, a leading empty part for the sign, three strconv.Atoi — kept
// as the definition of the language ParseCivil accepts.
func parseISOSplit(s string) (Civil, bool) {
	parts := strings.Split(s, "-")
	neg := false
	if len(parts) > 0 && parts[0] == "" {
		neg = true
		parts = parts[1:]
	}
	if len(parts) != 3 {
		return Civil{}, false
	}
	y, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return Civil{}, false
	}
	if neg {
		y = -y
	}
	c := Civil{Year: y, Month: m, Day: d}
	if !c.Valid() {
		return Civil{}, false
	}
	return c, true
}

// FuzzParseCivil holds the in-place ISO parser to the Split-and-Atoi one on
// arbitrary strings: the same date or the same refusal, and through ParseCivil
// the same fall-through to the prose forms.
func FuzzParseCivil(f *testing.F) {
	for _, s := range []string{
		"1987-01-01", "1993-1-1", "-0044-03-15", "-001-12-27", "10000-01-01", "0-1-1", "0000-02-29",
		// What Atoi lets through, and what it does not.
		"+1993-01-01", "1993-+1-01", "1993-01-+1", "-+44-03-15", "+-44-03-15", "1993-01_0-01", "0x7c9-01-01",
		"9223372036854775807-01-01", "9223372036854775808-01-01", "-9223372036854775808-01-01",
		// Too few, too many and empty fields.
		"", "-", "--", "1993", "1993-01", "-1993-01", "1993-01-01-", "1993-01-01-05", "--1993-01-01",
		"1993--01-01", "1993-01--1", "1993-01-", "-01-01", "1993-02-30", "1993-13-01", "1993-00-10",
		" 1993-01-01", "1993-01-01\n", "1993-01- 1", "1993−01−01", "١٩٩٣-01-01",
		"Jan 1, 1987", "January 3 1992", "Dec 31, -5", "Smarch 1, 1987", "1987/01/01",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := parseISO(s)
		want, wantOK := parseISOSplit(s)
		if got != want || ok != wantOK {
			t.Fatalf("parseISO(%q) = %v, %v; the Split-and-Atoi parser says %v, %v", s, got, ok, want, wantOK)
		}
		// ParseCivil: trimmed, the ISO reading first, then the prose forms.
		want, wantOK = parseISOSplit(strings.TrimSpace(s))
		if !wantOK {
			want, wantOK = parseProse(strings.TrimSpace(s))
		}
		if c, err := ParseCivil(s); c != want || (err == nil) != wantOK {
			t.Fatalf("ParseCivil(%q) = %v, %v; want %v, %v", s, c, err, want, wantOK)
		}
	})
}

// Reading a date allocates nothing: every /expand parses two, a holiday
// replacement sixty.
func TestParseCivilDoesNotAllocate(t *testing.T) {
	for _, s := range []string{"1993-01-01", "-0044-03-15", "10000-12-31", " 2005-12-31 "} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := ParseCivil(s); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ParseCivil(%q) allocates %.0f times", s, n)
		}
	}
}

// checkCursor formats rata day z through cur and holds the result to the
// definition, AppendCivil(nil, CivilFromRata(z)); afterwards cur must hold what
// a cursor that has seen z alone holds.
func checkCursor(t *testing.T, cur *CivilCursor, z int64) {
	t.Helper()
	civ := CivilFromRata(z)
	want := string(AppendCivil(nil, civ))
	// PutInMonth, before the cursor has seen z: Put's bytes for a day of the
	// remembered month, else nothing, and the cursor left as it was.
	before, in := *cur, []byte("??????????!")
	if ok := cur.PutInMonth(in, z); *cur != before {
		t.Fatalf("PutInMonth(%d) (%s) moved the cursor from %+v to %+v", z, want, before, *cur)
	} else if ok && string(in) != want+"!" {
		t.Fatalf("PutInMonth(%d) wrote %q, want %q", z, in, want+"!")
	} else if !ok && string(in) != "??????????!" {
		t.Fatalf("PutInMonth(%d) refused %s and still wrote %q", z, want, in)
	} else if inMonth := before.n != 0 && before.y == civ.Year && before.m == civ.Month; ok != inMonth {
		t.Fatalf("PutInMonth(%d) (%s) reports %v for a cursor at %d-%02d", z, want, ok, before.y, before.m)
	}
	if got := string(cur.Append([]byte("x"), z)); got != "x"+want {
		t.Fatalf("Append(%d) = %q, want %q", z, got, "x"+want)
	}
	const blank = "??????????"
	slot := []byte(blank + "!")
	if ok := cur.Put(slot, z); ok != (civ.Year >= 0 && civ.Year <= 9999) {
		t.Fatalf("Put(%d) (%s) reports %v", z, want, ok)
	} else if ok && string(slot) != want+"!" {
		t.Fatalf("Put(%d) wrote %q, want %q", z, slot, want+"!")
	} else if !ok && string(slot) != blank+"!" {
		t.Fatalf("Put(%d) refused %s and still wrote %q", z, want, slot)
	}
	var alone CivilCursor
	alone.Put(slot, z)
	if *cur != alone {
		t.Fatalf("after %d (%s) the cursor holds %+v; one that saw only that day holds %+v", z, want, *cur, alone)
	}
}

// TestCivilCursorMatchesAppendCivil walks one cursor day by day up and down
// through the edges of its fast path — the years whose dates are not ten bytes
// wide, the century and 400-year leap rules, the 1970 and 1987 epochs — then
// month by month, in place, along calendar strides and at random.
func TestCivilCursorMatchesAppendCivil(t *testing.T) {
	var cur CivilCursor
	for _, edge := range []Civil{
		{0, 1, 1}, {-1, 12, 31}, {9999, 12, 31}, {10000, 1, 1}, {1900, 2, 28}, {2000, 2, 29}, {1999, 12, 31},
		{0, 3, 1}, {400, 3, 1}, {2000, 3, 1}, {-400, 3, 1}, // Hinnant's eras begin on March 1
		{1970, 1, 1}, {1987, 1, 1}, {1986, 12, 31}, {-10000, 6, 15}, {20000, 6, 15},
	} {
		z := edge.Rata()
		for d := int64(-400); d <= 400; d++ {
			checkCursor(t, &cur, z+d)
		}
		for d := int64(400); d >= -400; d-- {
			checkCursor(t, &cur, z+d)
		}
		for k := int64(-30); k <= 30; k++ {
			checkCursor(t, &cur, z+k*30)
			checkCursor(t, &cur, z+k*30)
		}
	}
	// Calendar strides, which the cursor takes by stepping its month: the
	// same day of each month or each quarter, and each month's or quarter's
	// last day, over Feb 29 in 1900 (none), 2000 and 2100 (none), Dec -> Jan,
	// year 0 (entered from the wide year -1), and 9999-12 -> 10000-01, where
	// the step must refuse.
	for _, start := range []Civil{{1899, 10, 1}, {1999, 10, 1}, {2099, 10, 1}, {-1, 9, 1}, {9998, 10, 1}} {
		for _, months := range []int{1, 3} {
			for _, day := range []int{1, 15, 28, 0} { // 0: the month's last day
				for k := 0; k <= 30; k++ {
					mon := start.Year*12 + start.Month - 1 + k*months
					c := Civil{Year: int(floorDiv(int64(mon), 12)), Month: int(floorMod(int64(mon), 12)) + 1, Day: day}
					if day == 0 {
						c.Day = DaysInMonth(c.Year, c.Month)
					}
					checkCursor(t, &cur, c.Rata())
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(22))
	z := int64(0)
	for i := 0; i < 200000; i++ {
		switch rng.Intn(6) {
		case 0:
			z = rng.Int63n(12_000_000) - 6_000_000 // years -14 000..18 000
		case 1:
			z += rng.Int63n(63) - 31
		case 2:
			z--
		default:
			z++
		}
		checkCursor(t, &cur, z)
	}
}

// FuzzCivilCursor feeds one cursor an arbitrary walk: each byte pair of steps
// is a stride (a day, a month, a year, a 400-year cycle, the ten thousand
// years between the narrow dates and the wide) and a signed count of them.
func FuzzCivilCursor(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 0, 1, 0, 255, 1, 1, 1, 255})                          // 1970-01-01, day by day
	f.Add(Civil{0, 1, 2}.Rata(), []byte{0, 255, 0, 255, 0, 255, 0, 3, 1, 255, 1, 255}) // into year -1 and back
	f.Add(Civil{9999, 12, 30}.Rata(), []byte{0, 1, 0, 1, 0, 1, 0, 253, 4, 255, 4, 1})  // into year 10000 and back
	f.Add(Civil{1900, 2, 27}.Rata(), []byte{0, 1, 0, 1, 0, 1, 3, 1, 0, 255, 0, 0})     // 1900 has no Feb 29; 2300 neither
	f.Add(Civil{2000, 2, 28}.Rata(), []byte{0, 1, 0, 1, 3, 255, 3, 1, 2, 4, 2, 252})   // 2000 has
	f.Add(Civil{1986, 12, 1}.Rata(), []byte{1, 1, 1, 1, 1, 1, 1, 253, 0, 0, 0, 0})     // month-apart over the 1987 epoch
	// A month apart, a quarter apart and near month ends, over the leap rules
	// of 1900, 2000 and 2100, Dec -> Jan into year 0 and out of year 9999.
	f.Add(Civil{1899, 12, 31}.Rata(), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 3, 1, 3})
	f.Add(Civil{2000, 1, 31}.Rata(), []byte{1, 1, 0, 1, 1, 1, 1, 3, 1, 3, 0, 255, 1, 3})
	f.Add(Civil{2099, 11, 30}.Rata(), []byte{1, 3, 1, 3, 0, 1, 1, 1, 1, 1, 1, 1})
	f.Add(Civil{-1, 11, 15}.Rata(), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 253})
	f.Add(Civil{9999, 10, 31}.Rata(), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 255, 1, 3})
	strides := [...]int64{1, 30, 365, 146097, 3652425}
	f.Fuzz(func(t *testing.T, start int64, steps []byte) {
		z := start % (1 << 32)
		var cur CivilCursor
		checkCursor(t, &cur, z)
		for i := 0; i+1 < len(steps); i += 2 {
			z += strides[int(steps[i])%len(strides)] * int64(int8(steps[i+1]))
			checkCursor(t, &cur, z)
		}
	})
}
