package rules

import (
	"fmt"
	"sort"
	"strings"
)

// maxCatchUp caps the missed instants recovery enumerates per rule.
const maxCatchUp = 10000

// RecoveryReport summarizes what Recover did with the journal and the
// catalog after a crash.
type RecoveryReport struct {
	// ReplayedPending counts in-flight firings found in the journal.
	ReplayedPending int
	// Refired counts replayed firings that were (re-)executed.
	Refired int
	// Deduped counts replayed firings whose transaction had already
	// committed (RULE-TIME past the instant) — acked without re-execution.
	Deduped int
	// CaughtUp counts missed trigger instants fired by the catch-up pass.
	CaughtUp int
	// Skipped counts missed instants dropped per the catch-up policy.
	Skipped int
	// Orphaned counts journal entries for rules that no longer exist (or
	// moved out of the daemon's shard after a resharding).
	Orphaned int
}

func (r RecoveryReport) String() string {
	return fmt.Sprintf("replayed=%d refired=%d deduped=%d caughtup=%d skipped=%d orphaned=%d",
		r.ReplayedPending, r.Refired, r.Deduped, r.CaughtUp, r.Skipped, r.Orphaned)
}

// Recover brings a durable daemon back to a consistent state after a crash —
// or after a shard handoff, whose new epoch journal is created from the
// merged state of its predecessors' files (journal.Create) and then
// recovered like any other:
//
//  1. RULE-TIME rows older than the journal's acked-through high-water are
//     fast-forwarded — they came from a snapshot taken before firings that
//     the journal proves committed.
//  2. In-flight firings from the journal are resolved under their own
//     sequence numbers: already-committed ones are acked without
//     re-execution (the RULE-TIME dedup), the rest are re-executed
//     (FireAll/FireLast) or skipped (SkipMissed).
//  3. Triggers that came due while the daemon was down are caught up per
//     the policy: FireAll fires every missed instant in order, FireLast
//     only the latest, SkipMissed none.
//  4. Probing resumes at `now`.
//
// Together with the firing transaction (action + RULE-TIME advance commit
// atomically) this gives exactly-once execution per trigger instant under
// FireAll, and at-most-once under SkipMissed.
func (c *DBCron) Recover(now int64) (RecoveryReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep RecoveryReport
	if !c.durable {
		return rep, fmt.Errorf("rules: Recover requires a durable daemon (NewDBCronWith)")
	}
	c.recovering = true
	defer func() { c.recovering = false }()

	if j := c.opts.Journal; j != nil {
		st := j.State()
		// Phase 1: stale-snapshot protection. A restored RULE-TIME row may
		// predate firings the journal acked; trust the journal's high-water.
		// Stale rules are fast-forwarded in name order, so RULE-TIME is
		// rewritten the same way on every run.
		var stale []string
		for key, hi := range st.AckedThrough {
			name, ok := c.eng.canonicalName(key)
			if !ok || !c.inShard(name) {
				continue
			}
			if next, ok := c.eng.storedNext(name); ok && next <= hi {
				stale = append(stale, name)
			}
		}
		sort.Strings(stale)
		for _, name := range stale {
			if _, err := c.eng.skipPast(name, st.AckedThrough[strings.ToLower(name)]); err != nil {
				return rep, err
			}
		}

		// Phase 2: resolve in-flight firings recorded in the journal.
		for _, p := range st.Pending {
			rep.ReplayedPending++
			if !c.eng.hasTemporal(p.Rule) || !c.inShard(p.Rule) {
				rep.Orphaned++
				if err := j.Skip(p.Seq); err != nil {
					return rep, err
				}
				continue
			}
			if c.opts.CatchUp == SkipMissed {
				rep.Skipped++
				if err := j.Skip(p.Seq); err != nil {
					return rep, err
				}
				continue
			}
			if next, ok := c.eng.storedNext(p.Rule); ok && next > p.At {
				// The firing's transaction committed before the crash; only
				// its ack was lost.
				rep.Deduped++
				if err := j.Ack(p.Seq); err != nil {
					return rep, err
				}
				continue
			}
			pf := pendingFiring{Firing: Firing{Rule: p.Rule, At: p.At}, runAt: p.At, attempt: p.Attempts, seq: p.Seq}
			if p.At > now {
				// Scheduled in a probe window that had not elapsed yet —
				// re-queue it for its due time instead of firing early.
				key := strings.ToLower(p.Rule)
				if !c.scheduled[key] {
					c.scheduled[key] = true
					c.queue.add(pf)
				}
				continue
			}
			ok, err := c.execute(&pf, now)
			if err != nil {
				return rep, err
			}
			if ok {
				rep.Refired++
			}
		}
	}

	// Phase 3: catch up triggers missed while down. DueWithin(now, 0)
	// returns every overdue rule; entries already re-queued by phase 2
	// retries are left to the queue.
	due, err := c.eng.DueWithin(now, 0)
	if err != nil {
		return rep, err
	}
	for _, f := range due {
		if !c.inShard(f.Rule) {
			continue
		}
		key := strings.ToLower(f.Rule)
		if c.scheduled[key] {
			continue
		}
		missed, err := c.eng.missedInstants(f.Rule, now, maxCatchUp)
		if err != nil {
			return rep, err
		}
		if len(missed) == 0 {
			continue
		}
		switch c.opts.CatchUp {
		case FireAll:
			for _, at := range missed {
				pf, err := c.newPending(f.Rule, at)
				if err != nil {
					return rep, err
				}
				ok, err := c.execute(&pf, now)
				if err != nil {
					return rep, err
				}
				if !ok {
					// The failed instant is queued for retry (or dead-
					// lettered); firing later instants now would advance
					// RULE-TIME past it and turn the retry into a no-op.
					// Later instants stay overdue and are picked up by the
					// retry's success path and subsequent probes.
					break
				}
				rep.CaughtUp++
			}
		case FireLast:
			last := missed[len(missed)-1]
			rep.Skipped += len(missed) - 1
			pf, err := c.newPending(f.Rule, last)
			if err != nil {
				return rep, err
			}
			ok, err := c.execute(&pf, now)
			if err != nil {
				return rep, err
			}
			if ok {
				rep.CaughtUp++
			}
		case SkipMissed:
			rep.Skipped += len(missed)
			if _, err := c.eng.skipPast(f.Rule, now); err != nil {
				return rep, err
			}
		}
	}

	// Phase 4: resume probing immediately.
	c.nextProbe = now
	return rep, nil
}
