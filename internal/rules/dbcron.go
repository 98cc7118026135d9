package rules

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"calsys/internal/faultinject"
	"calsys/internal/rules/journal"
)

// ErrFenced is returned (wrapped) by a CronOptions.Fence check when the
// daemon's shard lease is no longer valid: the firing transaction aborts and
// the daemon must stop processing the shard — a newer owner holds it.
var ErrFenced = errors.New("rules: firing fenced: shard lease lost")

// ShardOf assigns a rule to one of `shards` partitions by an FNV-1a hash of
// its lower-cased name. It is the single sharding function of the system:
// probe windows, recovery and per-shard journals all agree on it.
func ShardOf(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h ^= uint32(c)
		h *= prime32
	}
	return int(h % uint32(shards))
}

// Fault-injection sites in the daemon.
const (
	// SiteProbe is hit at the top of each RULE-TIME probe.
	SiteProbe = "dbcron.probe"
	// SiteAck is hit after a firing's transaction commits and before its
	// journal ack is buffered — the classic at-least-once window, one firing
	// wide. Recovery closes it by detecting the advanced RULE-TIME and
	// acking without re-executing.
	SiteAck = "dbcron.ack"
)

// CatchUpPolicy selects what recovery does with trigger instants that came
// due while the daemon was down — the classic cron catch-up semantics.
type CatchUpPolicy int

const (
	// FireAll executes every missed instant, in order (anacron-style).
	FireAll CatchUpPolicy = iota
	// FireLast executes only the most recent missed instant per rule.
	FireLast
	// SkipMissed executes none of them; triggers resume strictly after the
	// recovery instant.
	SkipMissed
)

func (p CatchUpPolicy) String() string {
	switch p {
	case FireAll:
		return "fireall"
	case FireLast:
		return "firelast"
	case SkipMissed:
		return "skip"
	}
	return fmt.Sprintf("CatchUpPolicy(%d)", int(p))
}

// ParseCatchUpPolicy resolves a policy name (fireall | firelast | skip).
func ParseCatchUpPolicy(s string) (CatchUpPolicy, error) {
	switch strings.ToLower(s) {
	case "fireall", "all":
		return FireAll, nil
	case "firelast", "last":
		return FireLast, nil
	case "skip", "none":
		return SkipMissed, nil
	}
	return 0, fmt.Errorf("rules: unknown catch-up policy %q", s)
}

// RetryPolicy bounds how a failing action is retried: exponential backoff
// from BaseDelay doubling up to MaxDelay, plus a seeded jitter fraction.
// MaxAttempts counts the first try; when it is exhausted the firing moves to
// RULE-DEADLETTER. The zero value means "no retries" (legacy fail-fast).
type RetryPolicy struct {
	MaxAttempts int
	BaseDelay   int64 // seconds before the first retry (default 2)
	MaxDelay    int64 // backoff cap in seconds (default 300)
	Jitter      float64
}

// DefaultRetryPolicy is applied by NewDBCronWith when none is given.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 5, BaseDelay: 2, MaxDelay: 300, Jitter: 0.2}

// backoff returns the delay in seconds before the next try, after `attempt`
// completed attempts (attempt >= 1).
func (p RetryPolicy) backoff(attempt int, rng *rand.Rand) int64 {
	d := p.BaseDelay
	if d <= 0 {
		d = 2
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 300
	}
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if p.Jitter > 0 && rng != nil {
		d += int64(float64(d) * p.Jitter * rng.Float64())
	}
	if d < 1 {
		d = 1
	}
	return d
}

// CronOptions configures a durable daemon (NewDBCronWith).
type CronOptions struct {
	// Journal, when set, records scheduled → fired → acked transitions for
	// every firing, enabling crash recovery.
	Journal *journal.Journal
	// Retry bounds per-firing retries; zero value adopts DefaultRetryPolicy.
	Retry RetryPolicy
	// CatchUp selects recovery semantics for triggers missed while down.
	CatchUp CatchUpPolicy
	// ActionTimeout bounds one action execution (0 = unbounded).
	ActionTimeout time.Duration
	// Seed makes retry jitter deterministic.
	Seed int64
	// Faults threads the fault-injection harness through the daemon.
	Faults *faultinject.Injector
	// Shard/Shards restrict the daemon to rules with ShardOf(name, Shards)
	// == Shard. Shards <= 0 (the default) probes the whole fleet.
	Shard  int
	Shards int
	// Fence, when set, is called inside every firing transaction before any
	// effect, with the daemon's current instant. Returning an error (by
	// convention wrapping ErrFenced) aborts the firing: a worker whose shard
	// lease was stolen cannot commit stale firings.
	Fence func(now int64) error
}

// DBCron is the daemon of Figure 4, modeled on the UNIX cron utility: every
// T time units it probes RULE-TIME for the temporal rules triggering within
// the next T units, holds them in an in-memory timing wheel, and fires each
// at its trigger instant.
//
// DBCron is step-driven and has no clock of its own: AdvanceTo(now) performs
// every probe and firing due up to `now`. Callers step it directly (the
// virtual-time tests, calsh, calbench), or shard.Worker.Tick steps one
// DBCron per owned shard (cmd/dbcrond). A real-time deployment puts its own
// ticker around Tick.
//
// A daemon built with NewDBCronWith is durable: firings are journaled,
// failing actions retry with exponential backoff until a budget moves them
// to RULE-DEADLETTER, and Recover replays the journal and catches up missed
// triggers after a crash.
type DBCron struct {
	eng *Engine
	// T is the probe period in seconds.
	T       int64
	durable bool
	opts    CronOptions
	rng     *rand.Rand

	// catalogChanged is set by the calendar catalog's change listener; the
	// next probe runs a mass next-trigger recompute before scheduling.
	catalogChanged atomic.Bool

	// closed marks a daemon whose shard was handed off; its catalog
	// listener goes quiet and its engine drop listener is unhooked.
	closed atomic.Bool
	dropID int

	mu         sync.Mutex
	queue      *timingWheel
	scheduled  map[string]bool // rules (lower-cased) currently armed
	nextProbe  int64
	recovering bool  // Recover in progress: it chains catch-up itself
	fired      int64 // lifetime firing count
	lateSum    int64 // total firing lateness (for monitoring)
	retries    int64 // failed attempts that were rescheduled
	dead       int64 // firings moved to RULE-DEADLETTER
}

// NewDBCron creates a daemon over the engine with probe period T seconds,
// anchored so the first probe happens at startAt. It fails fast on action
// errors (no retries, no journal); use NewDBCronWith for the durable daemon.
func NewDBCron(eng *Engine, T int64, startAt int64) (*DBCron, error) {
	if T <= 0 {
		return nil, fmt.Errorf("rules: probe period must be positive")
	}
	c := &DBCron{
		eng: eng, T: T,
		queue:     newTimingWheel(startAt),
		scheduled: map[string]bool{},
		nextProbe: startAt,
	}
	c.dropID = eng.addDropListener(c.ruleDropped)
	eng.Cal().AddChangeListener(func() {
		if !c.closed.Load() {
			c.catalogChanged.Store(true)
		}
	})
	return c, nil
}

// Close detaches the daemon from its engine: the drop listener is removed
// and the catalog listener goes quiet. A worker calls it when a shard is
// handed off so repeated handoffs do not accumulate listeners.
func (c *DBCron) Close() {
	if c.closed.CompareAndSwap(false, true) {
		c.eng.removeDropListener(c.dropID)
	}
}

// NewDBCronWith creates a durable daemon: journaled firings, retry with
// backoff and dead-lettering, and Recover support.
func NewDBCronWith(eng *Engine, T int64, startAt int64, opts CronOptions) (*DBCron, error) {
	c, err := NewDBCron(eng, T, startAt)
	if err != nil {
		return nil, err
	}
	if opts.Retry.MaxAttempts <= 0 {
		opts.Retry = DefaultRetryPolicy
	}
	c.durable = true
	c.opts = opts
	c.rng = rand.New(rand.NewSource(opts.Seed))
	return c, nil
}

// pendingFiring is one armed attempt in the timing wheel: a firing plus its
// retry state.
type pendingFiring struct {
	Firing
	runAt   int64  // when to (re)attempt; equals At until a retry backs off
	attempt int    // completed attempts
	seq     uint64 // journal sequence (0 when no journal)
}

// newPending builds a wheel entry for a trigger, journaling its acceptance.
func (c *DBCron) newPending(rule string, at int64) (pendingFiring, error) {
	pf := pendingFiring{Firing: Firing{Rule: rule, At: at}, runAt: at}
	if j := c.opts.Journal; j != nil {
		seq, err := j.Scheduled(rule, at)
		if err != nil {
			return pf, err
		}
		pf.seq = seq
	}
	return pf, nil
}

// probe loads the rules due within the next T seconds into the wheel. The
// scheduled set is maintained incrementally (every pop site clears its key),
// so a probe tick costs O(due), not O(pending).
func (c *DBCron) probe(now int64) error {
	if err := faultinject.Hit(c.opts.Faults, SiteProbe); err != nil {
		return err
	}
	// A calendar catalog change can move the stored next triggers of the
	// rules that read the written calendar: run the batched recompute of the
	// rules whose values stamp moved (one RULE-TIME transaction, worker pool)
	// before scheduling from the table. Wheel entries whose instant moved
	// are neutralized by the firing path's already-advanced check against
	// RULE-TIME.
	if c.catalogChanged.CompareAndSwap(true, false) {
		if _, err := c.eng.RecomputeAll(now); err != nil {
			return err
		}
	}
	due, err := c.eng.DueWithin(now, c.T)
	if err != nil {
		return err
	}
	journaled := false
	for _, f := range due {
		if !c.inShard(f.Rule) {
			continue
		}
		key := strings.ToLower(f.Rule)
		if c.scheduled[key] {
			continue
		}
		pf, err := c.newPending(f.Rule, f.At)
		if err != nil {
			return err
		}
		journaled = journaled || pf.seq != 0
		c.scheduled[key] = true
		c.queue.add(pf)
	}
	if journaled {
		if err := c.opts.Journal.Sync(); err != nil {
			return err
		}
	}
	c.nextProbe = now + c.T
	return nil
}

// inShard reports whether the daemon owns the rule under its shard filter.
func (c *DBCron) inShard(name string) bool {
	return c.opts.Shards <= 0 || ShardOf(name, c.opts.Shards) == c.opts.Shard
}

// execute runs one attempt of a pending firing (c.mu held). It reports
// whether the firing committed; a non-nil error means processing must stop
// (legacy-mode action failure, injected crash, lost shard lease, or journal
// I/O error) — durable-mode action failures are absorbed into retries or the
// dead-letter table instead. Every return that leaves the entry out of the
// wheel clears the rule's scheduled key, so the next probe re-arms it from
// RULE-TIME: an uncommitted instant is overdue there, a committed one has
// already advanced.
func (c *DBCron) execute(pf *pendingFiring, now int64) (bool, error) {
	key := strings.ToLower(pf.Rule)
	j := c.opts.Journal
	if j != nil {
		if err := j.Begin(pf.seq, pf.attempt+1); err != nil {
			delete(c.scheduled, key)
			return false, err
		}
	}
	var fence func() error
	if c.opts.Fence != nil {
		fence = func() error { return c.opts.Fence(now) }
	}
	err := c.eng.fireChecked(pf.Rule, pf.At, c.opts.ActionTimeout, fence)
	pf.attempt++
	if err == nil {
		delete(c.scheduled, key)
		if err := faultinject.Hit(c.opts.Faults, SiteAck); err != nil {
			// The firing committed but its ack is lost with the crash;
			// recovery deduplicates via RULE-TIME.
			return true, err
		}
		if j != nil {
			if err := j.Ack(pf.seq); err != nil {
				return true, err
			}
		}
		c.fired++
		c.lateSum += now - pf.At
		// If the rule re-armed inside the current probe window, schedule it
		// now — the next probe would otherwise scan past it. (Recovery
		// chains catch-up instants itself, so skip the re-arm there.)
		if next := c.eng.nextOf(pf.Rule); !c.recovering && next <= c.nextProbe && next < noTrigger && !c.scheduled[key] {
			npf, err := c.newPending(pf.Rule, next)
			if err != nil {
				return true, err
			}
			c.scheduled[key] = true
			c.queue.add(npf)
		}
		return true, nil
	}
	if errors.Is(err, ErrFenced) || faultinject.IsCrash(err) || !c.durable {
		// A lost shard lease stops without retrying or dead-lettering
		// (either would advance RULE-TIME under the new owner's feet; the
		// new owner recovers and fires this instant); a crash stops dead; a
		// legacy daemon fails fast.
		delete(c.scheduled, key)
		return false, err
	}
	if pf.attempt >= c.opts.Retry.MaxAttempts {
		delete(c.scheduled, key)
		c.dead++
		if derr := c.eng.deadLetter(pf.Rule, pf.At, pf.attempt, err.Error(), now); derr != nil {
			return false, derr
		}
		if j != nil {
			if derr := j.Dead(pf.seq, pf.attempt, err.Error()); derr != nil {
				return false, derr
			}
		}
		return false, nil
	}
	c.retries++
	pf.runAt = now + c.opts.Retry.backoff(pf.attempt, c.rng)
	c.scheduled[key] = true
	c.queue.add(*pf)
	return false, nil
}

// AdvanceTo processes all probes and firings due at or before `now`, in
// timestamp order, and returns the firings executed. In legacy (fail-fast)
// mode a rule that fails stops processing and surfaces the error; in
// durable mode failures retry with backoff and processing continues.
func (c *DBCron) AdvanceTo(now int64) (fired []Firing, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.flushJournal(&err)
	for {
		// Next event is either a probe or the earliest pending attempt;
		// firings at the probe instant run before the probe (seed order).
		limit := c.nextProbe
		if now < limit {
			limit = now
		}
		if pf, ok := c.queue.popDue(limit); ok {
			done, err := c.execute(&pf, now)
			if done {
				fired = append(fired, pf.Firing)
			}
			if err != nil {
				return fired, err
			}
			continue
		}
		if c.nextProbe > now {
			return fired, nil
		}
		if err := c.probe(c.nextProbe); err != nil {
			return fired, err
		}
	}
}

// flushJournal writes what the journal still buffers, the last firing's ack
// among it, on a return of AdvanceTo or Recover (c.mu held). An injected
// crash models a process death and writes nothing more.
func (c *DBCron) flushJournal(err *error) {
	if j := c.opts.Journal; j != nil && !faultinject.IsCrash(*err) {
		if ferr := j.Flush(); *err == nil {
			*err = ferr
		}
	}
}

// ruleDropped is the engine's drop notification: discard schedule state so a
// redefined rule starts clean instead of being suppressed by a stale window
// entry or fired at a stale instant.
func (c *DBCron) ruleDropped(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.scheduled, key)
	for _, pf := range c.queue.removeRule(key) {
		if j := c.opts.Journal; j != nil && pf.seq != 0 {
			_ = j.Skip(pf.seq) // best-effort; recovery also skips unknown rules
		}
	}
}

// CronStats is the daemon's full counter snapshot.
type CronStats struct {
	Fired   int64 // firings committed
	LateSum int64 // cumulative lateness seconds
	Retries int64 // failed attempts rescheduled with backoff
	Dead    int64 // firings moved to RULE-DEADLETTER
	Pending int   // wheel entries awaiting execution or retry
}

// Stats reports all daemon counters.
func (c *DBCron) Stats() CronStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CronStats{Fired: c.fired, LateSum: c.lateSum, Retries: c.retries, Dead: c.dead, Pending: c.queue.size()}
}
