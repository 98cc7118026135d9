// Package interval implements the temporal-interval primitive of the calendar
// algebra: closed integer-tick intervals under the no-zero convention, the
// relationship operators of Allen (1985) used by the paper, and normalized
// interval sets used for calendar union, difference and intersection.
//
// Set is the one coverage type and Set.Without / Set.Within its two merge
// kernels: Set.Diff, Set.Intersect, calendar.Diff and calendar.Intersect are
// calls to them, and a new point-set operator is a kernel beside them.
package interval

import (
	"fmt"

	"calsys/internal/chronology"
)

// An Interval is a closed span of ticks [Lo, Hi] at some granularity, with
// Lo <= Hi and neither endpoint equal to 0 (the paper's no-zero convention).
// The paper writes intervals as (lo, hi); both endpoints are inclusive.
type Interval struct {
	Lo, Hi chronology.Tick
}

// New constructs a validated interval.
func New(lo, hi chronology.Tick) (Interval, error) {
	iv := Interval{Lo: lo, Hi: hi}
	if err := iv.Check(); err != nil {
		return Interval{}, err
	}
	return iv, nil
}

// Must constructs an interval known to be valid, panicking otherwise. It is
// intended for literals in tests and examples.
func Must(lo, hi chronology.Tick) Interval {
	iv, err := New(lo, hi)
	if err != nil {
		panic(err)
	}
	return iv
}

// Check validates the no-zero convention and endpoint ordering.
func (iv Interval) Check() error {
	if iv.Lo == 0 || iv.Hi == 0 {
		return fmt.Errorf("interval (%d,%d): endpoints may not be 0 (no-zero convention)", iv.Lo, iv.Hi)
	}
	if iv.Lo > iv.Hi {
		return fmt.Errorf("interval (%d,%d): lower bound exceeds upper bound", iv.Lo, iv.Hi)
	}
	return nil
}

// String renders the interval in the paper's (lo,hi) notation.
func (iv Interval) String() string { return fmt.Sprintf("(%d,%d)", iv.Lo, iv.Hi) }

// Length returns the number of ticks contained in the interval, accounting
// for the skipped tick 0.
func (iv Interval) Length() int64 {
	return chronology.OffsetFromTick(iv.Hi) - chronology.OffsetFromTick(iv.Lo) + 1
}

// Contains reports whether tick t lies within the interval. Tick 0 is never
// contained.
func (iv Interval) Contains(t chronology.Tick) bool {
	return t != 0 && iv.Lo <= t && t <= iv.Hi
}

// Intersect returns the common span of two intervals, if any.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	lo := max64(iv.Lo, other.Lo)
	hi := min64(iv.Hi, other.Hi)
	if lo > hi {
		return Interval{}, false
	}
	return Interval{Lo: lo, Hi: hi}, true
}

// Hull returns the smallest interval containing both arguments.
func (iv Interval) Hull(other Interval) Interval {
	return Interval{Lo: min64(iv.Lo, other.Lo), Hi: max64(iv.Hi, other.Hi)}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
