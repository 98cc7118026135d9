// Package serve is calserved's multi-tenant HTTP serving layer: per-tenant
// namespaces over the CALENDARS catalog and the temporal-rule engine, a
// convenience recurrence schema that compiles down to calendar-language
// expressions, vet-on-write with structured CV-coded errors, and one
// process-wide lowering of each catalog-independent expression.
package serve

import (
	"fmt"
	"sort"
	"strings"

	"calsys/internal/chronology"
)

// Recurrence is the convenience schema tenants send instead of calendar
// expressions (after the kazoo temporal_rules API): "third Friday monthly"
// arrives as {"cycle":"monthly","ordinal":"third","wdays":["friday"]} and
// compiles to [3]/(([5]/(DAYS:during:WEEKS)):during:MONTHS). The compiled
// expression references only the basic calendars, so it is catalog-
// independent and every tenant reads its one lowering.
type Recurrence struct {
	// Cycle is the recurrence cycle: date, daily, weekly, monthly, yearly.
	Cycle string `json:"cycle"`
	// Interval is the recurrence interval; only the default 1 is supported
	// (see Compile).
	Interval int `json:"interval,omitempty"`
	// Days are month days (1..31, or negative to count from the end:
	// -1 is the last day); used by monthly and yearly cycles.
	Days []int `json:"days,omitempty"`
	// Ordinal picks which matching weekday: every, first, second, third,
	// fourth, fifth, last. Defaults to every when WDays is set.
	Ordinal string `json:"ordinal,omitempty"`
	// WDays are weekday names (monday..sunday; "wensday" is accepted for
	// kazoo compatibility).
	WDays []string `json:"wdays,omitempty"`
	// Month restricts a yearly cycle to one month (1..12).
	Month int `json:"month,omitempty"`
	// StartDate is the single date of a cycle=date recurrence (ISO
	// YYYY-MM-DD).
	StartDate string `json:"start_date,omitempty"`
}

// SchemaError is a positioned recurrence-schema rejection: Field names the
// offending field ("cycle", "wdays[1]", ...), which the HTTP layer surfaces
// as the error position.
type SchemaError struct {
	Field string
	Msg   string
}

func (e *SchemaError) Error() string { return fmt.Sprintf("%s: %s", e.Field, e.Msg) }

func schemaErrf(field, format string, args ...any) *SchemaError {
	return &SchemaError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// weekdayNumber resolves a weekday name to the paper's Monday=1..Sunday=7
// numbering — the selection index of that day within a WEEKS unit.
func weekdayNumber(name string) (int, bool) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "monday":
		return 1, true
	case "tuesday":
		return 2, true
	case "wednesday", "wensday": // kazoo's schema ships the typo; accept it
		return 3, true
	case "thursday":
		return 4, true
	case "friday":
		return 5, true
	case "saturday":
		return 6, true
	case "sunday":
		return 7, true
	}
	return 0, false
}

// ordinalIndex resolves an ordinal name to a selection predicate: "[k]" for
// first..fifth, "[n]" for last, and ok=false ("every") for no selection.
func ordinalIndex(ordinal string) (pred string, every bool, err error) {
	switch strings.ToLower(strings.TrimSpace(ordinal)) {
	case "", "every":
		return "", true, nil
	case "first":
		return "[1]", false, nil
	case "second":
		return "[2]", false, nil
	case "third":
		return "[3]", false, nil
	case "fourth":
		return "[4]", false, nil
	case "fifth":
		return "[5]", false, nil
	case "last":
		return "[n]", false, nil
	}
	return "", false, schemaErrf("ordinal",
		"unknown ordinal %q (want every, first, second, third, fourth, fifth or last)", ordinal)
}

// selList renders a sorted, deduplicated selection list like "[1,3,5]".
func selList(ks []int) string {
	sorted := append([]int(nil), ks...)
	sort.Ints(sorted)
	parts := sorted[:0]
	for i, k := range sorted {
		if i == 0 || k != sorted[i-1] {
			parts = append(parts, k)
		}
	}
	strs := make([]string, len(parts))
	for i, k := range parts {
		strs[i] = fmt.Sprintf("%d", k)
	}
	return "[" + strings.Join(strs, ",") + "]"
}

// wdayNumbers validates and resolves the WDays field.
func (r Recurrence) wdayNumbers() ([]int, error) {
	out := make([]int, 0, len(r.WDays))
	for i, name := range r.WDays {
		n, ok := weekdayNumber(name)
		if !ok {
			return nil, schemaErrf(fmt.Sprintf("wdays[%d]", i), "unknown weekday %q", name)
		}
		out = append(out, n)
	}
	return out, nil
}

// checkDays validates month-day selectors: non-zero, |d| ≤ 31.
func checkDays(days []int) error {
	for i, d := range days {
		if d == 0 || d > 31 || d < -31 {
			return schemaErrf(fmt.Sprintf("days[%d]", i),
				"month day %d out of range (1..31, or -1..-31 from the end)", d)
		}
	}
	return nil
}

// monthUnit renders the grouping unit for one month of every year:
// ([m]/(MONTHS:during:YEARS)).
func monthUnit(m int) string {
	return fmt.Sprintf("([%d]/(MONTHS:during:YEARS))", m)
}

// Compile translates the recurrence schema to a calendar-language
// expression over the basic calendars. The chronology is needed only by
// cycle=date, to anchor the start date as a day tick. All errors are
// *SchemaError with a field position.
//
// Interval values beyond 1 are rejected: the calendar algebra has no
// anchored "every k-th" operator (a selection like [1,3,...]/WEEKS:during:
// YEARS would silently re-anchor at year boundaries), and a wrong answer is
// worse than a clear refusal.
func (r Recurrence) Compile(ch *chronology.Chronology) (string, error) {
	if r.Interval < 0 {
		return "", schemaErrf("interval", "interval must be positive")
	}
	if r.Interval > 1 {
		return "", schemaErrf("interval",
			"interval %d is not supported: only the default interval 1 compiles to the calendar algebra", r.Interval)
	}
	cycle := strings.ToLower(strings.TrimSpace(r.Cycle))
	switch cycle {
	case "":
		return "", schemaErrf("cycle", "cycle is required (date, daily, weekly, monthly or yearly)")
	case "date":
		return r.compileDate(ch)
	case "daily":
		return r.compileDaily()
	case "weekly":
		return r.compileWeekly()
	case "monthly":
		return r.compileMonthly()
	case "yearly":
		return r.compileYearly()
	}
	return "", schemaErrf("cycle", "unknown cycle %q (want date, daily, weekly, monthly or yearly)", r.Cycle)
}

// reject returns a SchemaError if any of the named fields is set; each
// cycle kind accepts only the fields that shape it, so a stray field is a
// mistake worth surfacing rather than ignoring.
func (r Recurrence) reject(cycle string, fields ...string) error {
	for _, f := range fields {
		set := false
		switch f {
		case "days":
			set = len(r.Days) > 0
		case "wdays":
			set = len(r.WDays) > 0
		case "ordinal":
			set = strings.TrimSpace(r.Ordinal) != ""
		case "month":
			set = r.Month != 0
		case "start_date":
			set = strings.TrimSpace(r.StartDate) != ""
		}
		if set {
			return schemaErrf(f, "%s is not supported for cycle %q", f, cycle)
		}
	}
	return nil
}

func (r Recurrence) compileDate(ch *chronology.Chronology) (string, error) {
	if err := r.reject("date", "days", "wdays", "ordinal", "month"); err != nil {
		return "", err
	}
	if strings.TrimSpace(r.StartDate) == "" {
		return "", schemaErrf("start_date", "cycle \"date\" requires start_date (YYYY-MM-DD)")
	}
	d, err := chronology.ParseCivil(r.StartDate)
	if err != nil {
		return "", schemaErrf("start_date", "bad date %q: %v", r.StartDate, err)
	}
	t := ch.DayTick(d)
	if t < 1 {
		return "", schemaErrf("start_date", "date %s is before the system epoch %s", d, ch.Epoch())
	}
	return fmt.Sprintf("DAYS:during:interval(%d, %d)", t, t), nil
}

func (r Recurrence) compileDaily() (string, error) {
	if err := r.reject("daily", "days", "wdays", "ordinal", "month", "start_date"); err != nil {
		return "", err
	}
	return "DAYS", nil
}

func (r Recurrence) compileWeekly() (string, error) {
	if err := r.reject("weekly", "days", "ordinal", "month", "start_date"); err != nil {
		return "", err
	}
	if len(r.WDays) == 0 {
		return "", schemaErrf("wdays", "cycle \"weekly\" requires wdays")
	}
	ws, err := r.wdayNumbers()
	if err != nil {
		return "", err
	}
	return selList(ws) + "/DAYS:during:WEEKS", nil
}

// compileWithin builds the monthly/yearly core over a grouping unit: unit ==
// "MONTHS" for monthly, or ([m]/(MONTHS:during:YEARS)) for one month of
// every year. cycle names the cycle for error messages.
func (r Recurrence) compileWithin(cycle, unit string) (string, error) {
	hasDays, hasWDays := len(r.Days) > 0, len(r.WDays) > 0
	if hasDays && (hasWDays || strings.TrimSpace(r.Ordinal) != "") {
		return "", schemaErrf("days", "days cannot be combined with wdays/ordinal")
	}
	switch {
	case hasDays:
		if err := checkDays(r.Days); err != nil {
			return "", err
		}
		return fmt.Sprintf("%s/(DAYS:during:%s)", selList(r.Days), unit), nil
	case hasWDays:
		pred, every, err := ordinalIndex(r.Ordinal)
		if err != nil {
			return "", err
		}
		ws, err := r.wdayNumbers()
		if err != nil {
			return "", err
		}
		if every {
			// Every matching weekday: group the weekday calendar by the
			// unit, no outer selection.
			return fmt.Sprintf("(%s/(DAYS:during:WEEKS)):during:%s", selList(ws), unit), nil
		}
		// The k-th matching weekday of each unit, one union term per
		// weekday ("first Monday or Friday" is first-Monday + first-Friday).
		terms := make([]string, len(ws))
		for i, w := range ws {
			terms[i] = fmt.Sprintf("%s/(([%d]/(DAYS:during:WEEKS)):during:%s)", pred, w, unit)
		}
		return strings.Join(terms, " + "), nil
	case strings.TrimSpace(r.Ordinal) != "":
		return "", schemaErrf("ordinal", "ordinal requires wdays")
	case cycle == "yearly":
		// A bare yearly month is every day of that month.
		return fmt.Sprintf("DAYS:during:%s", unit), nil
	}
	return "", schemaErrf("days", "cycle %q requires days, or wdays with an optional ordinal", cycle)
}

func (r Recurrence) compileMonthly() (string, error) {
	if err := r.reject("monthly", "month", "start_date"); err != nil {
		return "", err
	}
	return r.compileWithin("monthly", "MONTHS")
}

func (r Recurrence) compileYearly() (string, error) {
	if err := r.reject("yearly", "start_date"); err != nil {
		return "", err
	}
	if r.Month == 0 {
		return "", schemaErrf("month", "cycle \"yearly\" requires month (1..12)")
	}
	if r.Month < 1 || r.Month > 12 {
		return "", schemaErrf("month", "month %d out of range (1..12)", r.Month)
	}
	return r.compileWithin("yearly", monthUnit(r.Month))
}
