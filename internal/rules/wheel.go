package rules

import (
	"math/bits"
	"strings"
)

// Timing-wheel geometry: 64 slots per level, 6 bits of the instant per
// level. Level l buckets instants by runAt >> (6·l); eleven levels cover the
// full 2^62 instant space (noTrigger is never armed).
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 11
)

type wheelLevel struct {
	// occ has bit i set iff slot[i] is non-empty; next-slot scans are a
	// rotate plus TrailingZeros64 instead of a walk.
	occ  uint64
	slot [wheelSlots][]pendingFiring
}

// timingWheel is a hierarchical timing wheel over armed firing attempts,
// after the classic kernel-timer design: an entry lives at the lowest level
// whose 64-slot window around the current base covers its instant, and is
// cascaded toward level 0 as the base advances. add is O(1); advancing the
// base by any distance moves each entry at most wheelLevels times over its
// whole residence, so a probe tick costs O(due), not O(pending).
//
// Entries at or before the base live in a small exact min-heap (due): the
// wheel only ever bounds *future* instants, while overdue work (retry
// backlog, catch-up) needs exact pop ordering.
type timingWheel struct {
	base  int64 // every wheel-resident entry has runAt > base
	count int
	due   []pendingFiring
	level [wheelLevels]wheelLevel
	// scratch is the cascade's reusable move buffer.
	scratch []pendingFiring
}

// duePush and duePop are container/heap's push and pop specialized to a
// []pendingFiring ordered by runAt: going through heap.Interface boxes every
// pendingFiring in an any, which at million-entry scale is an allocation per
// armed firing.
func duePush(h *[]pendingFiring, pf pendingFiring) {
	*h = append(*h, pf)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].runAt <= s[i].runAt {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func duePop(h *[]pendingFiring) pendingFiring {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = pendingFiring{}
	s = s[:n]
	*h = s
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].runAt < s[c].runAt {
			c++
		}
		if s[i].runAt <= s[c].runAt {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

func newTimingWheel(base int64) *timingWheel {
	return &timingWheel{base: base}
}

func (w *timingWheel) add(pf pendingFiring) {
	w.count++
	if pf.runAt <= w.base {
		duePush(&w.due, pf)
		return
	}
	l := w.levelFor(pf.runAt)
	shift := uint(wheelBits * l)
	i := (pf.runAt >> shift) & wheelMask
	w.level[l].slot[i] = append(w.level[l].slot[i], pf)
	w.level[l].occ |= 1 << uint(i)
}

// levelFor picks the lowest level whose window around base covers runAt
// (precondition: runAt > base). The top level's window spans the whole
// instant space, so the scan always terminates.
func (w *timingWheel) levelFor(runAt int64) int {
	for l := 0; l < wheelLevels-1; l++ {
		shift := uint(wheelBits * l)
		if (runAt>>shift)-(w.base>>shift) < wheelSlots {
			return l
		}
	}
	return wheelLevels - 1
}

// cascade advances the base to limit, draining every slot whose window the
// base crossed: entries now due join the exact heap, the rest re-bucket at a
// finer level relative to the new base.
func (w *timingWheel) cascade(limit int64) {
	if limit <= w.base {
		return
	}
	old := w.base
	w.base = limit
	moved := w.scratch[:0]
	for l := 0; l < wheelLevels; l++ {
		lv := &w.level[l]
		if lv.occ == 0 {
			continue
		}
		shift := uint(wheelBits * l)
		startSlot := old >> shift
		endSlot := limit >> shift
		var mask uint64
		if endSlot-startSlot >= wheelSlots-1 {
			mask = ^uint64(0)
		} else {
			a := uint(startSlot) & wheelMask
			b := uint(endSlot) & wheelMask
			if b >= a {
				mask = (^uint64(0) >> (63 - b)) & (^uint64(0) << a)
			} else {
				mask = (^uint64(0) << a) | (^uint64(0) >> (63 - b))
			}
		}
		hits := lv.occ & mask
		for hits != 0 {
			i := bits.TrailingZeros64(hits)
			hits &^= 1 << uint(i)
			// append copies the entries out, so resetting the slot's length
			// while keeping its capacity is safe — and saves reallocating
			// the slot every time the circular window comes around again.
			moved = append(moved, lv.slot[i]...)
			lv.slot[i] = lv.slot[i][:0]
			lv.occ &^= 1 << uint(i)
		}
	}
	for _, pf := range moved {
		w.count--
		w.add(pf)
	}
	w.scratch = moved[:0]
}

// popDue removes and returns the earliest attempt with runAt <= limit.
func (w *timingWheel) popDue(limit int64) (pendingFiring, bool) {
	w.cascade(limit)
	if len(w.due) > 0 && w.due[0].runAt <= limit {
		w.count--
		return duePop(&w.due), true
	}
	return pendingFiring{}, false
}

// removeRule unarms every attempt of the rule (lower-cased key) and returns
// the removed entries so the caller can journal skips.
func (w *timingWheel) removeRule(key string) []pendingFiring {
	var removed []pendingFiring
	// Re-push the survivors into the same backing array: a push never
	// touches a position past the one just read.
	due := w.due
	w.due = due[:0]
	for _, pf := range due {
		if strings.ToLower(pf.Rule) == key {
			removed = append(removed, pf)
			continue
		}
		duePush(&w.due, pf)
	}
	for l := range w.level {
		lv := &w.level[l]
		occ := lv.occ
		for occ != 0 {
			i := bits.TrailingZeros64(occ)
			occ &^= 1 << uint(i)
			s := lv.slot[i]
			keep := s[:0]
			for _, pf := range s {
				if strings.ToLower(pf.Rule) == key {
					removed = append(removed, pf)
					continue
				}
				keep = append(keep, pf)
			}
			if len(keep) == 0 {
				lv.slot[i] = nil
				lv.occ &^= 1 << uint(i)
			} else {
				lv.slot[i] = keep
			}
		}
	}
	w.count -= len(removed)
	return removed
}

func (w *timingWheel) size() int { return w.count }
