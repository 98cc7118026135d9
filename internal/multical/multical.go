// Package multical implements the comparison baseline of §5 of the paper: a
// working subset of Soo and Snodgrass's MultiCal proposal ([SS92], [SS93]).
//
// MultiCal models a calendar as "a system of dividing the time line" and
// provides three temporal data types, of which the comparison needs two:
//
//   - Event: an isolated instant ("the time the option expired");
//   - Span: an unanchored duration with a known length but unknown position
//     ("a WEEK"), possibly of variable length ("a MONTH").
//
// (the third, Interval — contiguous chronons with known endpoints — plays no
// part in §5's argument and is not reproduced), plus multiple calendars
// (division systems) and multiple languages for output. The two proposals
// overlap only at variable spans: MultiCal's Month span captures the
// semantics of the paper's MONTHS calendar. What MultiCal does not have is an
// object like the nested interval list, so the paper's selection and foreach
// operators are inexpressible — the comparison tests make that concrete.
package multical

import (
	"fmt"
	"strings"

	"calsys/internal/chronology"
)

// Chronon is MultiCal's smallest time unit; we use one second, matching the
// main system's finest granularity.
type Chronon = int64

// Event is an isolated instant: a single chronon (epoch seconds of the host
// chronology).
type Event struct {
	At Chronon
}

// Span is an unanchored duration: a fixed number of seconds plus a variable
// number of months whose length depends on where the span is anchored —
// MultiCal's "variable span" (the Month span of the Gregorian calendar).
type Span struct {
	Months  int64
	Seconds int64
}

// Common spans.
var (
	SpanDay   = Span{Seconds: 86400}
	SpanMonth = Span{Months: 1} // variable
	SpanYear  = Span{Months: 12}
)

// FieldSet is an event decomposed under a calendar's division system.
type FieldSet map[string]int

// Calendar is MultiCal's notion of calendar: a system for dividing the time
// line into named fields. Multiple calendars coexist in one calendric system.
type Calendar interface {
	// Name identifies the calendar ("gregorian", "us-fiscal").
	Name() string
	// Fields decomposes an event into the calendar's divisions.
	Fields(e Event) FieldSet
}

// Gregorian divides the time line into civil years, months, days, hours,
// minutes and seconds over the host chronology.
type Gregorian struct {
	Chron *chronology.Chronology
}

// Name implements Calendar.
func (Gregorian) Name() string { return "gregorian" }

// Fields implements Calendar.
func (g Gregorian) Fields(e Event) FieldSet {
	d := g.Chron.CivilOf(e.At)
	daySec := e.At - g.Chron.EpochSecondsOf(d)
	return FieldSet{
		"year": d.Year, "month": d.Month, "day": d.Day,
		"hour": int(daySec / 3600), "minute": int(daySec % 3600 / 60), "second": int(daySec % 60),
	}
}

// FromFields composes an event from divisions (missing fine fields default
// to their minimum).
func (g Gregorian) FromFields(f FieldSet) (Event, error) {
	get := func(k string, def int) int {
		if v, ok := f[k]; ok {
			return v
		}
		return def
	}
	d := chronology.Civil{Year: get("year", 1970), Month: get("month", 1), Day: get("day", 1)}
	if !d.Valid() {
		return Event{}, fmt.Errorf("multical: invalid gregorian fields %v", f)
	}
	h, m, s := get("hour", 0), get("minute", 0), get("second", 0)
	if h < 0 || h > 23 || m < 0 || m > 59 || s < 0 || s > 59 {
		return Event{}, fmt.Errorf("multical: invalid time-of-day fields %v", f)
	}
	return Event{At: g.Chron.EpochSecondsOf(d) + int64(h)*3600 + int64(m)*60 + int64(s)}, nil
}

// AddSpan anchors a (possibly variable) span at an event: the variable month
// component moves through civil months (clamping the day, like date
// arithmetic libraries), and the fixed component adds seconds.
func (g Gregorian) AddSpan(e Event, s Span) Event {
	at := e.At
	if s.Months != 0 {
		d := g.Chron.CivilOf(at)
		daySec := at - g.Chron.EpochSecondsOf(d)
		mi := int64(d.Year)*12 + int64(d.Month-1) + s.Months
		y, m := int(floorDiv(mi, 12)), int(floorMod(mi, 12))+1
		day := d.Day
		if dim := chronology.DaysInMonth(y, m); day > dim {
			day = dim
		}
		at = g.Chron.EpochSecondsOf(chronology.Civil{Year: y, Month: m, Day: day}) + daySec
	}
	return Event{At: at + s.Seconds}
}

// Fiscal is a second division system in the same calendric system: the US
// federal fiscal calendar, whose year n runs from October 1 of civil year
// n-1 through September 30 of civil year n. Demonstrates MultiCal's
// multiple-calendar support: the same event has different fields under
// different calendars.
type Fiscal struct {
	Chron *chronology.Chronology
}

// Name implements Calendar.
func (Fiscal) Name() string { return "us-fiscal" }

// Fields implements Calendar: fiscal year, fiscal quarter (1 = Oct-Dec) and
// fiscal month (1 = October).
func (fc Fiscal) Fields(e Event) FieldSet {
	d := fc.Chron.CivilOf(e.At)
	fy, fm := d.Year, d.Month-9
	if d.Month >= 10 {
		fy = d.Year + 1
	} else {
		fm = d.Month + 3
	}
	return FieldSet{
		"fiscal-year": fy, "fiscal-quarter": (fm-1)/3 + 1, "fiscal-month": fm, "day": d.Day,
	}
}

// floorDiv / floorMod for month index arithmetic.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func floorMod(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

// --- output: multiple languages and formats ------------------------

// Language selects month names for formatting — MultiCal's multi-language
// support.
type Language int

// Supported output languages.
const (
	English Language = iota
	German
	French
)

var monthNames = map[Language][]string{
	English: {"", "January", "February", "March", "April", "May", "June",
		"July", "August", "September", "October", "November", "December"},
	German: {"", "Januar", "Februar", "März", "April", "Mai", "Juni",
		"Juli", "August", "September", "Oktober", "November", "Dezember"},
	French: {"", "janvier", "février", "mars", "avril", "mai", "juin",
		"juillet", "août", "septembre", "octobre", "novembre", "décembre"},
}

// FormatEvent renders an event under a calendar and language. Supported
// directives: %Y year, %m month number, %B month name, %d day, %H:%M:%S
// time of day, %f fiscal year (fiscal calendar only).
func FormatEvent(cal Calendar, lang Language, layout string, e Event) (string, error) {
	f := cal.Fields(e)
	names, ok := monthNames[lang]
	if !ok {
		return "", fmt.Errorf("multical: unsupported language %d", int(lang))
	}
	var b strings.Builder
	for i := 0; i < len(layout); i++ {
		c := layout[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(layout) {
			return "", fmt.Errorf("multical: trailing %% in layout")
		}
		switch layout[i] {
		case 'Y':
			fmt.Fprintf(&b, "%04d", f["year"])
		case 'f':
			fmt.Fprintf(&b, "%04d", f["fiscal-year"])
		case 'm':
			fmt.Fprintf(&b, "%02d", pick(f, "month", "fiscal-month"))
		case 'B':
			m := f["month"]
			if m < 1 || m > 12 {
				return "", fmt.Errorf("multical: calendar %s has no month name for %%B", cal.Name())
			}
			b.WriteString(names[m])
		case 'd':
			fmt.Fprintf(&b, "%02d", f["day"])
		case 'H':
			fmt.Fprintf(&b, "%02d", f["hour"])
		case 'M':
			fmt.Fprintf(&b, "%02d", f["minute"])
		case 'S':
			fmt.Fprintf(&b, "%02d", f["second"])
		case '%':
			b.WriteByte('%')
		default:
			return "", fmt.Errorf("multical: unknown directive %%%c", layout[i])
		}
	}
	return b.String(), nil
}

func pick(f FieldSet, keys ...string) int {
	for _, k := range keys {
		if v, ok := f[k]; ok {
			return v
		}
	}
	return 0
}
