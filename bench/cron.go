package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"calsys"
	"calsys/internal/store"
)

// cronSize fixes the work of one cron_fleet round. The work is fixed, not
// timed, so firing and journal byte counts repeat exactly for a seed.
type cronSize struct {
	rules, distinct   int
	days              int // virtual days from 1993-01-01
	checkpointEvery   int // snapshot + journal compaction period, days
	crashDay          int // the ack-site crash lands inside this day
	armDays           int // days the non-durable and sharded arms run
	shards            int // shards the one shard.Worker owns
	journalStandalone int // operations of the standalone journal arm
}

var cronFull = cronSize{
	rules: 5000, distinct: 50, days: 60, checkpointEvery: 15, crashDay: 50,
	armDays: 30, shards: 8, journalStandalone: 2000,
}

const firedTable = "FIRED"

// fleetExprs is the expression mix of internal/rules/bench_test.go: mostly
// monthly day picks, plus weekly and week-of-month shapes.
func fleetExprs(distinct int) []string {
	exprs := make([]string, 0, distinct)
	for k := 1; len(exprs) < distinct && k <= 28; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d]/DAYS:during:MONTHS", k))
	}
	for k := 1; len(exprs) < distinct && k <= 7; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d]/DAYS:during:WEEKS", k))
	}
	for k := 1; len(exprs) < distinct && k <= 4; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d]/WEEKS:overlaps:MONTHS", k))
	}
	for k := 1; len(exprs) < distinct; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d,%d]/DAYS:during:MONTHS", k, k+14))
	}
	return exprs
}

// fleet is one system loaded with the rule fleet. counts[rule*days+day-1]
// is how often the rule's action ran for the instant of that day; it lives in
// the harness, so it survives the simulated crash the way an external effect
// would.
type fleet struct {
	size   cronSize
	sys    *calsys.System
	clock  *calsys.VirtualClock
	start  int64
	counts []uint8
	last   int // index into counts of the action that ran last
}

func ruleName(i int) string { return fmt.Sprintf("r%d", i) }

// action is what every rule does: one sentinel row in the firing
// transaction, and the harness-side count.
func (f *fleet) action(i int) func(tx *calsys.Txn, at int64) error {
	name := calsys.NewText(ruleName(i))
	return func(tx *calsys.Txn, at int64) error {
		if _, err := tx.Append(firedTable, calsys.Row{name, calsys.NewInt(at)}); err != nil {
			return err
		}
		day := int((at - f.start) / calsys.SecondsPerDay)
		if day >= 1 && day <= f.size.days {
			f.last = i*f.size.days + day - 1
			f.counts[f.last]++
		}
		return nil
	}
}

// newFleet opens a system at 1993-01-01 and defines the fleet in one batch;
// defineS is the wall time of that batch.
func newFleet(size cronSize, counts []uint8) (f *fleet, defineS float64, err error) {
	clock := calsys.NewVirtualClock(0)
	sys, err := calsys.Open(calsys.WithClock(clock))
	if err != nil {
		return nil, 0, err
	}
	f = &fleet{size: size, sys: sys, clock: clock, counts: counts}
	f.start = sys.SecondsOf(calsys.MustDate(1993, 1, 1))
	clock.Set(f.start)
	schema, err := store.NewSchema(
		calsys.Column{Name: "rule", Type: calsys.TText},
		calsys.Column{Name: "at", Type: calsys.TInt})
	if err != nil {
		return nil, 0, err
	}
	if err := sys.DB().CreateTable(firedTable, schema); err != nil {
		return nil, 0, err
	}
	exprs := fleetExprs(size.distinct)
	defs := make([]calsys.TemporalRuleDef, size.rules)
	for i := range defs {
		act := f.action(i)
		defs[i] = calsys.TemporalRuleDef{
			Name:    ruleName(i),
			CalExpr: exprs[i%len(exprs)],
			Action: calsys.FuncAction{Name: "sentinel", Fn: func(tx *calsys.Txn, _ *calsys.Event, at int64) error {
				return act(tx, at)
			}},
		}
	}
	t0 := time.Now()
	if err := sys.OnCalendars(defs); err != nil {
		return nil, 0, err
	}
	return f, time.Since(t0).Seconds(), nil
}

// cronResult is everything one cron_fleet run measures.
type cronResult struct {
	setupS      []float64 // fleet definition, one per round
	dayMs       []float64 // one per AdvanceTo(+1 day) of the durable rounds
	roundRate   []float64 // firings per wall second, one per round
	recoveryS   []float64
	cpuMsPerOp  []float64
	firings     int64     // of one round (identical across rounds)
	journalByte int64     // of one round
	rowsLost    int64     // sentinel rows of acked firings absent after recovery
	refired     int64     // firings whose action ran a second time after the crash
	rssMB       []float64 // VmRSS of calbench at the end of each round
	rssPeakMB   float64
	refCPUMs    []float64 // the reference burst CPU time of each round
	attempted   int
	fails       []string

	// traced run only
	defineUsPerRule                            float64
	replayMs, loadMs, reattachMs, recoverMs    []float64
	saveMs, compactMs                          []float64
	snapshotMB                                 float64
	nodurDayMs, nodurFireUs, shardDayMs, ackUs float64
	durableFireUs                              float64
	spans                                      []span
}

// scaleRound scales the end-to-end timings of the round that just ended —
// the probe days from index days on, and the last set-up, rate and CPU values
// — by the CPU time of the reference bursts around it.
func (r *cronResult) scaleRound(days int, refCPUMs float64) {
	scale := refNominalCPUMs / refCPUMs
	r.refCPUMs = append(r.refCPUMs, refCPUMs)
	for i := days; i < len(r.dayMs); i++ {
		r.dayMs[i] *= scale
	}
	r.setupS[len(r.setupS)-1] *= scale
	r.roundRate[len(r.roundRate)-1] /= scale
	r.cpuMsPerOp[len(r.cpuMsPerOp)-1] *= scale
}

// referenceRun drives the fleet through a non-durable, never-crashed daemon.
// Its counts are the oracle of the durable rounds; perDay is the number of
// firings of each day, which places the seeded crash.
func referenceRun(size cronSize) (counts []uint8, perDay []int, dayMs []float64, err error) {
	counts = make([]uint8, size.rules*size.days)
	f, _, err := newFleet(size, counts)
	if err != nil {
		return nil, nil, nil, err
	}
	cron, err := f.sys.StartDBCron(calsys.SecondsPerDay)
	if err != nil {
		return nil, nil, nil, err
	}
	perDay = make([]int, size.days)
	for d := 0; d < size.days; d++ {
		t0 := time.Now()
		fired, err := cron.AdvanceTo(f.clock.Advance(calsys.SecondsPerDay))
		if err != nil {
			return nil, nil, nil, err
		}
		dayMs = append(dayMs, time.Since(t0).Seconds()*1e3)
		perDay[d] = len(fired)
	}
	cron.Close()
	return counts, perDay, dayMs, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// step runs fn inside a span and returns its wall time in milliseconds.
func step(tr *tracer, name string, parent, req int, fn func() error) (float64, error) {
	sp := tr.begin(name, parent, req)
	t0 := time.Now()
	err := fn()
	tr.end(sp)
	return time.Since(t0).Seconds() * 1e3, err
}

// durableRound runs the fixed work once: define, the days under a durable
// daemon with a journal and periodic checkpoints, a crash at the ack site,
// recovery from snapshot file + journal, and the remaining days. The journal
// writes every record with a write(2) of its own either way; flush says
// whether an ack also waits for fsync. The end-to-end rounds run without it:
// on this machine's shared disk a flush takes 75-400 us depending on the
// minute and is 96-98% of a durable firing, so with it every timing of the
// workload followed the disk and swung 2x between runs of one commit. The
// traced round flushes, and prices the flush as journal.fsync_share.
func durableRound(size cronSize, seed int64, dir string, flush bool, ref []uint8, perDay []int, res *cronResult, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jpath := filepath.Join(dir, "firing.journal")
	spath := filepath.Join(dir, "snapshot.db")

	counts := make([]uint8, size.rules*size.days)
	root := tr.begin("cron.round", -1, 0)
	var f *fleet
	var defineS float64
	if _, err := step(tr, "rules.define", root, 0, func() (err error) {
		f, defineS, err = newFleet(size, counts)
		return err
	}); err != nil {
		return err
	}
	res.setupS = append(res.setupS, defineS)
	res.defineUsPerRule = defineS * 1e6 / float64(size.rules)

	// The crash is the nth journal ack: every ack before the crash day, plus
	// a seeded position inside it.
	before := 0
	for d := 0; d < size.crashDay-1; d++ {
		before += perDay[d]
	}
	inDay := perDay[size.crashDay-1]
	if inDay == 0 {
		return fmt.Errorf("cron_fleet: no firing on crash day %d", size.crashDay)
	}
	nth := before + 1 + rand.New(rand.NewSource(seed)).Intn(inDay)

	open := func(sys *calsys.System, inj *calsys.FaultInjector) (*calsys.FiringJournal, *calsys.DBCron, error) {
		jnl, err := calsys.OpenFiringJournal(jpath, calsys.JournalSync(flush))
		if err != nil {
			return nil, nil, err
		}
		cron, err := sys.StartDurableDBCron(calsys.SecondsPerDay, calsys.CronOptions{
			Journal: jnl, CatchUp: calsys.FireAll, Faults: inj, Seed: seed,
		})
		return jnl, cron, err
	}
	inj := calsys.NewFaultInjector(seed)
	inj.CrashAt(calsys.SiteCronAck, nth)
	jnl, cron, err := open(f.sys, inj)
	if err != nil {
		return err
	}

	var journalBytes, lastSize int64
	lastSize = fileSize(jpath)
	cpu0, err := selfCPUMs()
	if err != nil {
		return err
	}
	t0 := time.Now()
	crashed, inflight := false, -1
	var durableMs float64 // whole days only: the crash day is cut short
	durableFirings := 0
	for d := 1; d <= size.days; d++ {
		now := f.clock.Advance(calsys.SecondsPerDay)
		sp := tr.begin("cron.advance_day", root, d)
		td := time.Now()
		_, err := cron.AdvanceTo(now)
		dur := time.Since(td)
		tr.end(sp)
		if err != nil {
			if !calsys.IsInjectedCrash(err) || crashed {
				return err
			}
			crashed = true
			// The process is gone: nothing is flushed, closed or compacted.
			// Only the snapshot file and the journal's bytes remain.
			journalBytes += fileSize(jpath) - lastSize
			inflight = f.last
			gone := time.Now()
			rsp := tr.begin("cron.recovery", root, d)

			clock := calsys.NewVirtualClock(now)
			var sys *calsys.System
			ms, err := step(tr, "store.snapshot_load", rsp, d, func() (err error) {
				sys, err = calsys.OpenSnapshotFile(spath, calsys.WithClock(clock))
				return err
			})
			if err != nil {
				return err
			}
			res.loadMs = append(res.loadMs, ms)
			f.sys, f.clock = sys, clock

			if ms, err = step(tr, "rules.reattach", rsp, d, func() error {
				for i := 0; i < size.rules; i++ {
					if err := sys.ReattachRule(ruleName(i), f.action(i)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
			res.reattachMs = append(res.reattachMs, ms)

			if ms, err = step(tr, "journal.replay", rsp, d, func() (err error) {
				jnl, cron, err = open(sys, nil)
				return err
			}); err != nil {
				return err
			}
			res.replayMs = append(res.replayMs, ms)
			lastSize = fileSize(jpath)

			if ms, err = step(tr, "rules.recover", rsp, d, func() error {
				_, err := cron.Recover(now)
				return err
			}); err != nil {
				return err
			}
			res.recoverMs = append(res.recoverMs, ms)
			tr.end(rsp)
			res.recoveryS = append(res.recoveryS, time.Since(gone).Seconds())
			continue
		}
		res.dayMs = append(res.dayMs, dur.Seconds()*1e3)
		durableMs += dur.Seconds() * 1e3
		durableFirings += perDay[d-1]
		if d%size.checkpointEvery == 0 && d < size.days {
			ms, err := step(tr, "store.snapshot_save", root, d, func() error { return f.sys.SaveSnapshotFile(spath) })
			if err != nil {
				return err
			}
			res.saveMs = append(res.saveMs, ms)
			res.snapshotMB = float64(fileSize(spath)) / (1 << 20)

			journalBytes += fileSize(jpath) - lastSize
			if ms, err = step(tr, "journal.compact", root, d, jnl.Compact); err != nil {
				return err
			}
			res.compactMs = append(res.compactMs, ms)
			lastSize = fileSize(jpath)
			journalBytes += lastSize // the rewrite is written too
		}
	}
	if !crashed {
		return fmt.Errorf("cron_fleet: the crash armed at ack %d never fired", nth)
	}
	wall := time.Since(t0).Seconds()
	cpu1, err := selfCPUMs()
	if err != nil {
		return err
	}
	cpuMs := cpu1 - cpu0
	journalBytes += fileSize(jpath) - lastSize
	if err := jnl.Close(); err != nil {
		return err
	}
	cron.Close()
	tr.end(root)

	// Every (rule, instant) of the reference ran exactly once and nothing
	// else ran. The one exception is the firing in flight at the crash: its
	// transaction committed, but the store that held the commit died with the
	// process and the snapshot predates it, so recovery cannot tell and runs
	// the action again. That is the daemon's documented at-least-once window;
	// it is counted, not failed.
	var firings int64
	for i, want := range ref {
		firings += int64(want)
		got := counts[i]
		if i == inflight && got == want+1 {
			res.refired++
			continue
		}
		if got != want {
			res.fails = append(res.fails, fmt.Sprintf("cron_fleet: rule %d day %d ran %d times, reference says %d",
				i/size.days, i%size.days+1, got, want))
		}
	}
	res.attempted += int(firings)
	res.firings, res.journalByte = firings, journalBytes
	res.roundRate = append(res.roundRate, float64(firings)/wall)
	// Resident memory with the round's garbage collected and returned: what
	// the fleet holds, not where the collector happened to be.
	debug.FreeOSMemory()
	if mb, err := procStatusMB(os.Getpid(), "VmRSS:"); err == nil {
		res.rssMB = append(res.rssMB, mb)
	}
	res.cpuMsPerOp = append(res.cpuMsPerOp, cpuMs/float64(firings))
	res.durableFireUs = durableMs * 1e3 / float64(durableFirings)
	if tab, ok := f.sys.DB().Table(firedTable); ok {
		res.rowsLost = firings - int64(tab.Len())
	}
	return nil
}

// shardArm and journalArm are single-layer measurements of the traced run.

// shardArm advances the same fleet for armDays under one shard.Worker that
// owns every shard, and returns the median milliseconds per day.
func shardArm(size cronSize, dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	f, _, err := newFleet(size, make([]uint8, size.rules*size.days))
	if err != nil {
		return 0, err
	}
	coord := calsys.NewShardCoordinator(size.shards, calsys.SecondsPerDay*3/2)
	w := calsys.NewShardWorker("w0", coord, f.sys.Rules(), calsys.SecondsPerDay, dir,
		calsys.ShardWorkerOptions{CatchUp: calsys.FireAll, SyncJournals: true})
	if err := w.Tick(f.start); err != nil {
		return 0, err
	}
	var dayMs []float64
	for d := 0; d < size.armDays; d++ {
		t0 := time.Now()
		if err := w.Tick(f.clock.Advance(calsys.SecondsPerDay)); err != nil {
			return 0, err
		}
		dayMs = append(dayMs, time.Since(t0).Seconds()*1e3)
	}
	if err := w.Shutdown(f.clock.Now()); err != nil {
		return 0, err
	}
	if fired := w.Stats().Fired; fired == 0 {
		return 0, fmt.Errorf("cron_fleet: the shard worker fired nothing in %d days", size.armDays)
	}
	return median(dayMs), nil
}

// journalArm times Scheduled+Begin+Ack on a standalone fsync'ing journal and
// returns the median microseconds per firing.
func journalArm(n int, dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	jnl, err := calsys.OpenFiringJournal(filepath.Join(dir, "standalone.journal"))
	if err != nil {
		return 0, err
	}
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		seq, err := jnl.Scheduled("r0", int64(i+1))
		if err == nil {
			err = jnl.Begin(seq, 1)
		}
		if err == nil {
			err = jnl.Ack(seq)
		}
		if err != nil {
			jnl.Close()
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us), jnl.Close()
}

// runCron measures cron_fleet: rounds of the fixed work until seconds have
// passed (at least minRounds), and on a traced run one round with spans plus
// the single-layer arms.
func runCron(size cronSize, seed int64, seconds float64, traced bool, outDir string) (*cronResult, error) {
	res := &cronResult{}
	ref, perDay, refDayMs, err := referenceRun(size)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	defer os.RemoveAll(tmp)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	load, err := startRefLoad()
	if err != nil {
		return nil, err
	}
	defer load.stop()
	const minRounds = 3
	begin := time.Now()
	burst, err := load.burst()
	if err != nil {
		return nil, err
	}
	for r := 0; r < minRounds || time.Since(begin).Seconds() < seconds; r++ {
		if traced && r > 0 {
			break
		}
		days := len(res.dayMs)
		if err := durableRound(size, seed, filepath.Join(tmp, fmt.Sprintf("round%d", r)), traced, ref, perDay, res, tr); err != nil {
			return nil, err
		}
		next, err := load.burst()
		if err != nil {
			return nil, err
		}
		res.scaleRound(days, burst.mean(next).cpuMs)
		burst = next
	}
	if res.rssPeakMB, err = procStatusMB(os.Getpid(), "VmHWM:"); err != nil {
		return nil, err
	}
	if !traced {
		return res, nil
	}
	res.spans = tr.spans

	arm := refDayMs[:size.armDays]
	armFirings := 0
	for _, n := range perDay[:size.armDays] {
		armFirings += n
	}
	res.nodurDayMs = median(arm)
	sum := 0.0
	for _, ms := range arm {
		sum += ms
	}
	res.nodurFireUs = sum * 1e3 / float64(armFirings)
	if res.shardDayMs, err = shardArm(size, filepath.Join(tmp, "shards")); err != nil {
		return nil, err
	}
	if res.ackUs, err = journalArm(size.journalStandalone, filepath.Join(tmp, "journal")); err != nil {
		return nil, err
	}
	return res, nil
}
