// Command dbcrond runs the DBCRON daemon of Figure 4 over virtual days. A
// fleet of -workers workers (one by default) splits the rules' -shards shards
// under TTL'd, epoch-fenced leases; every round each worker's Tick probes
// RULE-TIME and fires its shards' due rules, journaling every firing to a
// per-shard, per-epoch file under -journal-dir (a temp dir by default).
//
// The rules are the four named ones (every Tuesday, every month end, every
// quarter end, daily business days), whose firings are logged, or with
// -rules N the scheduling-at-scale mix: N synthetic rules over -distinct
// calendar expressions plus eight daily sentinel rules. Every expression of
// the mix answers from its pattern by arithmetic, so the report's count of
// windowed evaluations (the horizon window evaluated for an expression no
// pattern answers, once per firing of each of its rules) reads 0. The run
// verifies that every sentinel instant fired exactly once.
//
// -snapshot checkpoints the database every -checkpoint-days. -crash-after N
// kills worker 0 in the ack window of its Nth firing: the process exits the
// way a SIGKILL would, leaving the journals and the last checkpoint. Run the
// same command with -recover: it loads the checkpoint, re-binds the actions,
// and the first Tick adopts the journals left behind and recovers them under
// -policy (fireall | firelast | skip).
//
// -kill-after SIGKILLs one shard-owning worker mid-day: its leases expire,
// the survivors steal its shards, merge its journals and catch up. SIGTERM
// instead drains and releases every lease, so a clean shutdown never opens a
// steal window.
//
// -pprof serves net/http/pprof on the given address for live CPU and heap
// profiles of a running daemon (see also `make profile`).
//
// Usage:
//
//	dbcrond [-days N] [-T seconds] [-start YYYY-MM-DD] [-q]
//	        [-rules N [-distinct K]] [-workers N] [-shards M]
//	        [-lease-ttl secs] [-kill-after day] [-journal-dir DIR]
//	        [-snapshot FILE] [-checkpoint-days N] [-crash-after N]
//	        [-recover] [-policy fireall] [-pprof addr] [-mutexprofile N]
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"calsys"
)

// errCrashed reports a -crash-after kill; main exits nonzero without the
// clean-shutdown path.
var errCrashed = fmt.Errorf("simulated crash (restart with -recover)")

type config struct {
	days, T        int64
	start          string
	quiet          bool
	snapshotPath   string
	policy         string
	checkpointDays int64
	crashAfter     int64
	doRecover      bool
	rules          int64
	distinct       int64
	pprofAddr      string
	mutexFrac      int
	workers        int64
	shards         int64
	leaseTTL       int64
	killAfter      int64
	journalDir     string
}

func main() {
	var cfg config
	flag.Int64Var(&cfg.days, "days", 120, "virtual days to simulate")
	flag.Int64Var(&cfg.T, "T", calsys.SecondsPerDay, "DBCRON probe period in seconds")
	flag.StringVar(&cfg.start, "start", "1993-01-01", "simulation start date")
	flag.BoolVar(&cfg.quiet, "q", false, "suppress the per-firing log")
	flag.StringVar(&cfg.snapshotPath, "snapshot", "", "database snapshot file (checkpointed periodically)")
	flag.StringVar(&cfg.policy, "policy", "fireall", "catch-up policy on recovery: fireall | firelast | skip")
	flag.Int64Var(&cfg.checkpointDays, "checkpoint-days", 7, "virtual days between snapshot checkpoints")
	flag.Int64Var(&cfg.crashAfter, "crash-after", 0, "simulate a crash after worker 0's Nth firing (0 = never)")
	flag.BoolVar(&cfg.doRecover, "recover", false, "recover from -snapshot and the journals in -journal-dir before simulating")
	flag.Int64Var(&cfg.rules, "rules", 0, "scale demo: define N synthetic rules and 8 sentinels instead of the named set")
	flag.Int64Var(&cfg.distinct, "distinct", 50, "scale demo: distinct calendar expressions across -rules")
	flag.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.IntVar(&cfg.mutexFrac, "mutexprofile", 0, "sample 1/N mutex contention events for /debug/pprof/mutex (0 = off)")
	flag.Int64Var(&cfg.workers, "workers", 1, "lease-holding workers in the fleet")
	flag.Int64Var(&cfg.shards, "shards", 8, "hash-partition the rules into M shards")
	flag.Int64Var(&cfg.leaseTTL, "lease-ttl", calsys.SecondsPerDay*3/2, "lease TTL in seconds")
	flag.Int64Var(&cfg.killAfter, "kill-after", 0, "SIGKILL one shard owner after N virtual days (0 = never)")
	flag.StringVar(&cfg.journalDir, "journal-dir", "", "directory for the per-shard journals (default: a temp dir)")
	flag.Parse()

	if cfg.mutexFrac > 0 {
		runtime.SetMutexProfileFraction(cfg.mutexFrac)
	}
	if cfg.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(cfg.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "dbcrond: pprof server:", err)
			}
		}()
		fmt.Printf("pprof: http://%s/debug/pprof/\n", cfg.pprofAddr)
	}

	if _, err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dbcrond:", err)
		os.Exit(1)
	}
}

var ruleDefs = []struct{ name, expr string }{
	{"every_tuesday", "[2]/DAYS:during:WEEKS"},
	{"month_end", "[n]/DAYS:during:MONTHS"},
	{"quarter_end", "[n]/DAYS:during:caloperate(MONTHS, 3)"},
	{"business_day", "Weekdays"},
}

// fleetSentinels is the count of exact-verification daily rules mixed into
// the -rules population.
const fleetSentinels = 8

// fleetExprs returns `distinct` calendar expressions for the scale demo:
// mostly monthly day picks, plus weekly and week-of-month shapes — the same
// mix BenchmarkProbe100kRules uses.
func fleetExprs(distinct int64) []string {
	exprs := make([]string, 0, distinct)
	for k := 1; int64(len(exprs)) < distinct && k <= 28; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d]/DAYS:during:MONTHS", k))
	}
	for k := 1; int64(len(exprs)) < distinct && k <= 7; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d]/DAYS:during:WEEKS", k))
	}
	for k := 1; int64(len(exprs)) < distinct && k <= 4; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d]/WEEKS:overlaps:MONTHS", k))
	}
	for k := 1; int64(len(exprs)) < distinct; k++ {
		exprs = append(exprs, fmt.Sprintf("[%d,%d]/DAYS:during:MONTHS", k, k+14))
	}
	return exprs
}

// population is the rule set of a run and the counters its actions bump: the
// named rules (each firing logged unless -q), or the -rules mix plus the
// sentinels, which record every instant they fire at.
type population struct {
	defs      []calsys.TemporalRuleDef
	fired     int64
	named     map[string]int
	sentinels []map[int64]int
}

func newPopulation(cfg config, sys *calsys.System) *population {
	p := &population{named: map[string]int{}}
	if cfg.rules == 0 {
		for _, rd := range ruleDefs {
			name := rd.name
			p.defs = append(p.defs, calsys.TemporalRuleDef{Name: name, CalExpr: rd.expr,
				Action: calsys.FuncAction{Name: name, Fn: func(_ *calsys.Txn, _ *calsys.Event, at int64) error {
					p.named[name]++
					p.fired++
					if !cfg.quiet {
						fmt.Printf("%s  fired %-14s\n", sys.Chron().CivilOf(at), name)
					}
					return nil
				}}})
		}
		return p
	}
	for i := 0; i < fleetSentinels; i++ {
		m := map[int64]int{}
		p.sentinels = append(p.sentinels, m)
		p.defs = append(p.defs, calsys.TemporalRuleDef{Name: fmt.Sprintf("sentinel-%d", i), CalExpr: "DAYS",
			Action: calsys.FuncAction{Name: "sentinel", Fn: func(_ *calsys.Txn, _ *calsys.Event, at int64) error {
				m[at]++
				p.fired++
				return nil
			}}})
	}
	count := calsys.FuncAction{Name: "count", Fn: func(*calsys.Txn, *calsys.Event, int64) error {
		p.fired++
		return nil
	}}
	exprs := fleetExprs(cfg.distinct)
	for i := int64(0); i < cfg.rules; i++ {
		p.defs = append(p.defs, calsys.TemporalRuleDef{Name: fmt.Sprintf("r%d", i),
			CalExpr: exprs[i%int64(len(exprs))], Action: count})
	}
	return p
}

// run is the one daemon loop: open or recover the database, define the
// population, then step virtual time by T/4, ticking every live worker and
// checkpointing, until -days have passed; shut the fleet down, report and
// verify. It returns the workers so callers can read their counters.
func run(cfg config) ([]*calsys.ShardWorker, error) {
	startDate, err := calsys.ParseDate(cfg.start)
	if err != nil {
		return nil, err
	}
	policy, err := calsys.ParseCatchUpPolicy(cfg.policy)
	if err != nil {
		return nil, err
	}
	if cfg.workers < 1 {
		return nil, fmt.Errorf("-workers must be at least 1")
	}
	if cfg.doRecover && (cfg.journalDir == "" || cfg.snapshotPath == "") {
		return nil, fmt.Errorf("-recover needs both -journal-dir and -snapshot")
	}
	if cfg.crashAfter > 0 && cfg.journalDir == "" {
		return nil, fmt.Errorf("-crash-after needs -journal-dir (there is nothing to recover from otherwise)")
	}
	dir := cfg.journalDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "dbcrond-*"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	clock := calsys.NewVirtualClock(0)
	var sys *calsys.System
	if cfg.doRecover {
		if sys, err = calsys.OpenSnapshotFile(cfg.snapshotPath, calsys.WithClock(clock)); err != nil {
			return nil, fmt.Errorf("loading checkpoint: %w", err)
		}
	} else if sys, err = calsys.Open(calsys.WithClock(clock)); err != nil {
		return nil, err
	}
	start := sys.SecondsOf(startDate)
	clock.Set(start)
	end := start + cfg.days*calsys.SecondsPerDay

	pop := newPopulation(cfg, sys)
	t0 := time.Now()
	if cfg.doRecover {
		// Actions are code: re-bind them to the restored catalog rows,
		// keeping overdue triggers overdue so recovery can catch them up.
		for _, d := range pop.defs {
			if err := sys.Rules().ReattachAction(d.Name, d.Action); err != nil {
				return nil, fmt.Errorf("reattaching %s: %w", d.Name, err)
			}
		}
	} else {
		if cfg.rules == 0 {
			if err := sys.DefineCalendar("Weekdays", "[1,2,3,4,5]/DAYS:during:WEEKS", calsys.Day); err != nil {
				return nil, err
			}
		}
		if err := sys.OnCalendars(pop.defs); err != nil {
			return nil, err
		}
	}
	if cfg.rules > 0 && !cfg.doRecover {
		fmt.Printf("defined %d rules (%d sentinels) over %d expressions across %d shards in %v\n",
			len(pop.defs), fleetSentinels, len(fleetExprs(cfg.distinct)), cfg.shards,
			time.Since(t0).Round(time.Millisecond))
	}

	coord := calsys.NewShardCoordinator(int(cfg.shards), cfg.leaseTTL)
	workers := make([]*calsys.ShardWorker, cfg.workers)
	live := make([]bool, cfg.workers)
	for i := range workers {
		opts := calsys.ShardWorkerOptions{CatchUp: policy}
		if i == 0 && cfg.crashAfter > 0 {
			// A kill in the ack window of the Nth firing: its transaction
			// commits, its journal ack is lost, and the -recover run must
			// resolve the intent the journal still holds.
			opts.Faults = calsys.NewFaultInjector(1)
			opts.Faults.CrashAt(calsys.SiteCronAck, int(cfg.crashAfter))
		}
		workers[i] = calsys.NewShardWorker(fmt.Sprintf("w%d", i), coord, sys.Rules(), cfg.T, dir, opts)
		live[i] = true
	}

	checkpoint := func() error {
		if cfg.snapshotPath == "" {
			return nil
		}
		return sys.SaveSnapshotFile(cfg.snapshotPath)
	}
	// shutdown is the graceful exit: every live worker drains, compacts and
	// releases its shards, then the database is checkpointed.
	shutdown := func(now int64) error {
		for i, w := range workers {
			if !live[i] {
				continue
			}
			live[i] = false
			if err := w.Shutdown(now); err != nil {
				return err
			}
		}
		return checkpoint()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	killAt := int64(0)
	if cfg.killAfter > 0 {
		// Mid-day, so the kill lands between probes with firings in flight
		// on the wheel.
		killAt = start + cfg.killAfter*calsys.SecondsPerDay + calsys.SecondsPerDay/2
	}
	killed := -1
	step := cfg.T / 4
	if step < 1 {
		step = 1
	}
	nextCheckpoint := start + cfg.checkpointDays*calsys.SecondsPerDay
	t0 = time.Now()
	for now := start; now <= end; now += step {
		select {
		case s := <-sig:
			fmt.Printf("\n%v: draining, releasing every lease and checkpointing\n", s)
			return workers, shutdown(now)
		default:
		}
		clock.Set(now)
		if killed < 0 && killAt > 0 && now >= killAt {
			for i, w := range workers {
				if live[i] && len(w.Owned()) > 0 {
					// SIGKILL: no drain, no release — the journals stay on
					// disk and the leases lapse into the steal window.
					live[i] = false
					killed = i
					fmt.Printf("day %d: SIGKILL %s (owned shards %v); leases expire in %ds\n",
						(now-start)/calsys.SecondsPerDay, w.Name(), w.Owned(), cfg.leaseTTL)
					break
				}
			}
		}
		for i, w := range workers {
			if !live[i] {
				continue
			}
			if err := w.Tick(now); err != nil {
				if calsys.IsInjectedCrash(err) {
					// Die like a killed process: no drain, no release, no
					// checkpoint, no compaction — only the journals and the
					// last checkpoint survive for the -recover run.
					fmt.Printf("\ndbcrond: simulated crash after %d firings — journals retained in %s\n", pop.fired, dir)
					fmt.Println("dbcrond: restart with -recover to resume")
					return workers, errCrashed
				}
				return workers, fmt.Errorf("%s: %w", w.Name(), err)
			}
		}
		if cfg.doRecover && now == start {
			for _, w := range workers {
				fmt.Printf("recovered (%s): %s\n", w.Name(), w.Stats().Recovered)
			}
		}
		if cfg.snapshotPath != "" && cfg.checkpointDays > 0 && now >= nextCheckpoint {
			if err := checkpoint(); err != nil {
				return workers, err
			}
			nextCheckpoint += cfg.checkpointDays * calsys.SecondsPerDay
		}
	}
	elapsed := time.Since(t0)
	if err := shutdown(end); err != nil {
		return workers, err
	}

	fmt.Printf("\nsimulated %d days from %s with T = %ds: %d workers, %d shards, lease TTL %ds, in %v (%v per day)\n",
		cfg.days, startDate, cfg.T, cfg.workers, cfg.shards, cfg.leaseTTL,
		elapsed.Round(time.Millisecond), (elapsed / time.Duration(max(cfg.days, 1))).Round(time.Microsecond))
	cs := coord.Stats()
	fmt.Printf("leases: %d grants (%d steals), %d renewals, %d releases\n",
		cs.Grants, cs.Steals, cs.Renewals, cs.Releases)
	for i, w := range workers {
		st := w.Stats()
		state := "stopped"
		if i == killed {
			state = "killed"
		}
		fmt.Printf("  %-4s %-7s adopted %d  released %d  lost %d  fenced %d  fired %d\n",
			w.Name(), state, st.Adopted, st.Released, st.Lost, st.Fenced, st.Fired)
	}
	if dls, err := sys.DeadLetters(); err == nil && len(dls) > 0 {
		fmt.Printf("  RULE-DEADLETTER holds %d firings (query with calsh .deadletter)\n", len(dls))
	}
	if cfg.rules == 0 {
		for _, rd := range ruleDefs {
			fmt.Printf("  %-14s fired %4d times\n", rd.name, pop.named[rd.name])
		}
		fmt.Printf("  total firings %d\n", pop.fired)
		return workers, nil
	}
	fmt.Printf("windowed evaluations across the whole run: %d\n", sys.Rules().Cal().WindowEvals())
	if cfg.doRecover {
		// The instants before the crash fired in the dead process.
		fmt.Printf("%d firings since recovery\n", pop.fired)
		return workers, nil
	}
	bad := 0
	for i, m := range pop.sentinels {
		for day := int64(1); day <= cfg.days; day++ {
			at := start + day*calsys.SecondsPerDay
			if m[at] != 1 {
				fmt.Printf("VIOLATION: sentinel-%d at day %d fired %d times, want exactly 1\n", i, day, m[at])
				bad++
			}
		}
	}
	if killed >= 0 && cs.Steals == 0 {
		fmt.Println("VIOLATION: a worker was killed but no lease was stolen")
		bad++
	}
	if bad > 0 {
		return workers, fmt.Errorf("exactly-once verification failed: %d violations", bad)
	}
	fmt.Printf("verified: %d sentinel instants fired exactly once; %d total firings\n",
		fleetSentinels*int(cfg.days), pop.fired)
	return workers, nil
}
