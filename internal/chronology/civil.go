package chronology

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Civil is a proleptic Gregorian calendar date.
type Civil struct {
	Year  int // astronomical year numbering (1 BCE is year 0)
	Month int // 1..12
	Day   int // 1..daysInMonth
}

// Weekday numbers days of the week following the paper's convention:
// Monday is 1 and Sunday is 7 ("Note that Monday is taken to be 1 and
// Sunday as 7").
type Weekday int

// Days of the week, Monday-first per the paper.
const (
	Monday Weekday = 1 + iota
	Tuesday
	Wednesday
	Thursday
	Friday
	Saturday
	Sunday
)

var weekdayNames = [...]string{"", "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"}

// String returns the English weekday name.
func (w Weekday) String() string {
	if w < Monday || w > Sunday {
		return fmt.Sprintf("Weekday(%d)", int(w))
	}
	return weekdayNames[w]
}

var monthNames = [...]string{"", "January", "February", "March", "April", "May", "June",
	"July", "August", "September", "October", "November", "December"}

// IsLeap reports whether the Gregorian year y is a leap year.
func IsLeap(y int) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

var monthDays = [...]int{0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// DaysInMonth returns the number of days in month m of year y.
func DaysInMonth(y, m int) int {
	if m == 2 && IsLeap(y) {
		return 29
	}
	if m < 1 || m > 12 {
		return 0
	}
	return monthDays[m]
}

// DaysInYear returns 365 or 366.
func DaysInYear(y int) int {
	if IsLeap(y) {
		return 366
	}
	return 365
}

// Valid reports whether c is a real calendar date.
func (c Civil) Valid() bool {
	return c.Month >= 1 && c.Month <= 12 && c.Day >= 1 && c.Day <= DaysInMonth(c.Year, c.Month)
}

// String formats the date as YYYY-MM-DD.
func (c Civil) String() string {
	var b [32]byte
	return string(AppendCivil(b[:0], c))
}

// AppendCivil appends c as YYYY-MM-DD to dst without allocating. The
// rendering is that of "%04d-%02d-%02d": years outside 0..9999 keep their
// sign and extra digits ("-044-03-15", "12345-01-01") and still round-trip
// through ParseCivil.
func AppendCivil(dst []byte, c Civil) []byte {
	y, m, d := c.Year, c.Month, c.Day
	if uint(y) <= 9999 && uint(m) <= 99 && uint(d) <= 99 {
		return append(dst,
			byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
			byte('0'+m/10), byte('0'+m%10), '-',
			byte('0'+d/10), byte('0'+d%10))
	}
	dst = appendPadded(dst, y, 4)
	dst = append(dst, '-')
	dst = appendPadded(dst, m, 2)
	dst = append(dst, '-')
	return appendPadded(dst, d, 2)
}

// appendPadded appends v zero-padded to width bytes, a minus sign counting
// towards the width (fmt's %0*d).
func appendPadded(dst []byte, v, width int) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u
		width--
	}
	var b [20]byte
	digits := strconv.AppendUint(b[:0], u, 10)
	for n := len(digits); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// Rata returns the number of days from the civil epoch 1970-01-01 to c
// (negative before it). This is Howard Hinnant's days_from_civil algorithm,
// valid over the full proleptic Gregorian calendar.
func (c Civil) Rata() int64 {
	y := int64(c.Year)
	m := int64(c.Month)
	d := int64(c.Day)
	if m <= 2 {
		y--
	}
	var era int64
	if y >= 0 {
		era = y / 400
	} else {
		era = (y - 399) / 400
	}
	yoe := y - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = m - 3
	} else {
		mp = m + 9
	}
	doy := (153*mp+2)/5 + d - 1            // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468       // shift so 1970-01-01 is 0
}

// CivilFromRata inverts Rata: it returns the civil date of the given day
// number relative to 1970-01-01.
func CivilFromRata(z int64) Civil {
	z += 719468
	var era int64
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	d := doy - (153*mp+2)/5 + 1              // [1, 31]
	var m int64
	if mp < 10 {
		m = mp + 3
	} else {
		m = mp - 9
	}
	if m <= 2 {
		y++
	}
	return Civil{Year: int(y), Month: int(m), Day: int(d)}
}

// A CivilCursor formats rata days as YYYY-MM-DD and remembers the month of the
// last one: inside that month a date is the month's eight bytes plus an
// offset, and a date a few months on is reached by stepping those eight bytes
// a month at a time, so a sorted run of days pays CivilFromRata only for a
// jump. AppendCivil(dst, CivilFromRata(z)) is the definition, and what a jump
// costs. The cursor's state follows from the last day alone.
type CivilCursor struct {
	z0     int64  // rata day of the remembered month's first day
	n      uint64 // its length in days; 0 when no month is remembered
	y, m   int    // the remembered month
	prefix uint64 // "YYYY-MM-", little-endian
}

// cursorSteps bounds how far past its month, in days, the cursor steps month
// by month before it locates a date afresh: about four months.
const cursorSteps = 4 * 31

// Put writes the ten bytes of rata day z into dst[:10] and reports true. A
// year outside 0..9999 is not ten bytes wide ("-001-12-27", "10000-01-01"):
// Put then writes nothing, forgets its month and reports false, and Append is
// the way to format z.
func (c *CivilCursor) Put(dst []byte, z int64) bool {
	d := uint64(z - c.z0)
	for d >= c.n {
		newYear := true
		if c.n != 0 && d < c.n+cursorSteps {
			c.z0, d = c.z0+int64(c.n), d-c.n
			if c.m++; c.m > 12 {
				c.y, c.m = c.y+1, 1
			} else {
				newYear = false
			}
		} else {
			civ := CivilFromRata(z)
			c.y, c.m, d = civ.Year, civ.Month, uint64(civ.Day-1)
			c.z0 = z - int64(d)
		}
		if uint(c.y) > 9999 {
			*c = CivilCursor{}
			return false
		}
		// The eight bytes are put together in a register (stored a byte at a
		// time, they would stall the eight-byte load that copies them out),
		// and a step inside the year keeps the year's five.
		y, m := uint64(c.y), uint64(c.m)
		if newYear {
			c.prefix = '0' + y/1000 | ('0'+y/100%10)<<8 | ('0'+y/10%10)<<16 | ('0'+y%10)<<24 | '-'<<32
		}
		c.prefix = c.prefix&(1<<40-1) | ('0'+m/10)<<40 | ('0'+m%10)<<48 | '-'<<56
		c.n = uint64(DaysInMonth(c.y, c.m))
	}
	return c.PutInMonth(dst, z)
}

// PutInMonth is Put for a day of the remembered month, small enough to be
// inlined at the call; for any other day it writes nothing and reports false.
func (c *CivilCursor) PutInMonth(dst []byte, z int64) bool {
	d := uint64(z - c.z0)
	if d >= c.n {
		return false
	}
	dst[9], dst[8] = byte('0'+(d+1)%10), byte('0'+(d+1)/10)
	binary.LittleEndian.PutUint64(dst, c.prefix)
	return true
}

// Append appends rata day z as AppendCivil would, at any width.
func (c *CivilCursor) Append(dst []byte, z int64) []byte {
	var b [10]byte
	if c.Put(b[:], z) {
		return append(dst, b[:]...)
	}
	return AppendCivil(dst, CivilFromRata(z))
}

// WeekdayOfRata returns the weekday of the given rata day. 1970-01-01 was a
// Thursday.
func WeekdayOfRata(z int64) Weekday {
	// 1970-01-01 (rata 0) is Thursday (= 4 in Monday-first numbering).
	w := floorMod(z+3, 7) + 1 // rata -3 (1969-12-29) is Monday
	return Weekday(w)
}

// Weekday returns the weekday of c.
func (c Civil) Weekday() Weekday { return WeekdayOfRata(c.Rata()) }

// AddDays returns the civil date n days after c (n may be negative).
func (c Civil) AddDays(n int64) Civil { return CivilFromRata(c.Rata() + n) }

// Before reports whether c is strictly earlier than d.
func (c Civil) Before(d Civil) bool {
	if c.Year != d.Year {
		return c.Year < d.Year
	}
	if c.Month != d.Month {
		return c.Month < d.Month
	}
	return c.Day < d.Day
}

// ParseCivil parses a date in either ISO form "2006-01-02" or the paper's
// prose form "Jan 2, 2006" / "January 2, 2006".
func ParseCivil(s string) (Civil, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Civil{}, fmt.Errorf("chronology: empty date")
	}
	if c, ok := parseISO(s); ok {
		return c, nil
	}
	if c, ok := parseProse(s); ok {
		return c, nil
	}
	return Civil{}, fmt.Errorf("chronology: cannot parse date %q", s)
}

// parseISO reads three '-'-separated decimal fields as substrings of s: a
// well-formed date allocates nothing.
func parseISO(s string) (Civil, bool) {
	// Permit a leading minus for negative years: "-0044-03-15".
	s, neg := strings.CutPrefix(s, "-")
	ys, s, ok1 := strings.Cut(s, "-")
	ms, ds, ok2 := strings.Cut(s, "-")
	if !ok1 || !ok2 || strings.Contains(ds, "-") {
		return Civil{}, false
	}
	y, err1 := strconv.Atoi(ys)
	m, err2 := strconv.Atoi(ms)
	d, err3 := strconv.Atoi(ds)
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

func parseProse(s string) (Civil, bool) {
	// "Jan 2, 2006", "January 2 2006"
	s = strings.ReplaceAll(s, ",", " ")
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return Civil{}, false
	}
	m := monthFromName(fields[0])
	if m == 0 {
		return Civil{}, false
	}
	d, err1 := strconv.Atoi(fields[1])
	y, err2 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil {
		return Civil{}, false
	}
	c := Civil{Year: y, Month: m, Day: d}
	if !c.Valid() {
		return Civil{}, false
	}
	return c, true
}

func monthFromName(name string) int {
	n := strings.ToLower(name)
	for m := 1; m <= 12; m++ {
		full := strings.ToLower(monthNames[m])
		if n == full || (len(n) >= 3 && strings.HasPrefix(full, n)) {
			return m
		}
	}
	return 0
}

// floorDiv returns the floor of a/b for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// floorMod returns a mod b with the sign of b, for b > 0.
func floorMod(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}
