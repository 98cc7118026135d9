// Package chronology implements the calendrical substrate of the calendar
// system: proleptic Gregorian civil-date arithmetic, the basic granularities
// (SECONDS through CENTURY) of Chandra/Segev/Stonebraker (ICDE 1994), and the
// paper's "no-zero" tick convention, under which an interval never contains
// tick 0 — the tick preceding 1 is -1.
//
// All calendrical math is implemented from first principles (no dependence on
// package time), because the calendar system must be able to host non-civil
// conventions such as the 30/360 bond calendar alongside the Gregorian one.
package chronology

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Granularity identifies one of the basic calendars of the paper (§3.2):
// SECONDS, MINUTES, HOURS, DAYS, WEEKS, MONTHS, YEARS, DECADES and CENTURY.
type Granularity int

// The basic granularities, ordered from finest to coarsest.
const (
	Second Granularity = iota
	Minute
	Hour
	Day
	Week
	Month
	Year
	Decade
	Century
	numGranularities
)

var granNames = [...]string{
	Second:  "SECONDS",
	Minute:  "MINUTES",
	Hour:    "HOURS",
	Day:     "DAYS",
	Week:    "WEEKS",
	Month:   "MONTHS",
	Year:    "YEARS",
	Decade:  "DECADES",
	Century: "CENTURY",
}

// String returns the paper's upper-case name for the granularity.
func (g Granularity) String() string {
	if g < 0 || g >= numGranularities {
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
	return granNames[g]
}

// Valid reports whether g names one of the basic granularities.
func (g Granularity) Valid() bool { return g >= 0 && g < numGranularities }

// Finer reports whether g is strictly finer than h (e.g. Day is finer than
// Month). Week and Month are not comparable by containment, but the paper
// orders granularities linearly by span, which we follow.
func (g Granularity) Finer(h Granularity) bool { return g < h }

// Coarser reports whether g is strictly coarser than h.
func (g Granularity) Coarser(h Granularity) bool { return g > h }

var maxUnitSeconds = [...]int64{
	Second:  1,
	Minute:  60,
	Hour:    3600,
	Day:     SecondsPerDay,
	Week:    7 * SecondsPerDay,
	Month:   31 * SecondsPerDay,
	Year:    366 * SecondsPerDay,
	Decade:  3653 * SecondsPerDay,
	Century: 36525 * SecondsPerDay,
}

// MaxUnitSeconds is the longest span of one unit of g, in seconds (0 for an
// invalid g): how many finer units can lie in it at most, and how far a
// window-straddling unit can reach past a window edge.
func MaxUnitSeconds(g Granularity) int64 {
	if !g.Valid() {
		return 0
	}
	return maxUnitSeconds[g]
}

// Granularities returns all basic granularities from finest to coarsest.
func Granularities() []Granularity {
	gs := make([]Granularity, 0, numGranularities)
	for g := Granularity(0); g < numGranularities; g++ {
		gs = append(gs, g)
	}
	return gs
}

// ParseGranularity resolves a (case-insensitive) basic-calendar name, with or
// without a trailing S, to a Granularity.
func ParseGranularity(name string) (Granularity, error) {
	if g, ok := LookupGranularity(name); ok {
		return g, nil
	}
	return 0, fmt.Errorf("chronology: unknown granularity %q", name)
}

// LookupGranularity is ParseGranularity as a membership test: whether a name
// such as a catalog calendar's is a basic calendar's. It allocates nothing for
// an ASCII name, hit or miss.
func LookupGranularity(name string) (Granularity, bool) {
	n := strings.TrimSpace(name)
	if strings.ContainsFunc(n, func(r rune) bool { return r >= utf8.RuneSelf }) {
		n = strings.ToUpper(n) // Unicode case mapping; ASCII is mapped below
	}
	var buf [16]byte // longer names match nothing
	if len(n) > len(buf) {
		return 0, false
	}
	for i := 0; i < len(n); i++ {
		if buf[i] = n[i]; 'a' <= n[i] && n[i] <= 'z' {
			buf[i] -= 'a' - 'A'
		}
	}
	u := buf[:len(n)]
	for g, s := range granNames {
		if string(u) == s || len(u)+1 == len(s) && string(u) == s[:len(u)] && s[len(u)] == 'S' ||
			len(u) == len(s)+1 && string(u[:len(s)]) == s && u[len(s)] == 'S' {
			return Granularity(g), true
		}
	}
	// Common singular aliases.
	switch string(u) {
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
