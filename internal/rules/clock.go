// Package rules implements the time-based rule system of §4 of the paper:
// rules of the form "On Calendar-Expression do Action" stored in the
// RULE-INFO catalog, their next trigger times in RULE-TIME, and the DBCRON
// daemon that probes RULE-TIME every T time units, keeps an in-memory
// schedule of imminent firings, and triggers rule actions (Figure 4).
// Classical event rules (On Event where Condition do Action) are supported
// through the store's event listeners.
package rules

import "sync"

// Clock supplies the current instant in epoch seconds (seconds from midnight
// of the chronology's system start date). The system reads "today" from it;
// DBCRON has no clock of its own — its caller passes each instant — so tests
// and benchmarks run years of firings under a VirtualClock.
type Clock interface {
	Now() int64
}

// VirtualClock is a manually advanced clock for deterministic tests and
// benchmarks.
type VirtualClock struct {
	mu  sync.Mutex
	now int64
}

// NewVirtualClock starts a virtual clock at the given epoch second.
func NewVirtualClock(start int64) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now implements Clock.
func (c *VirtualClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d seconds and returns the new time.
func (c *VirtualClock) Advance(d int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// Set jumps the clock to a specific epoch second (never backwards).
func (c *VirtualClock) Set(now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now > c.now {
		c.now = now
	}
}
