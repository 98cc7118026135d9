// Command calbench is the repository's benchmark: four serving workloads
// driven against the real calserved binary and one DBCRON fleet workload run
// in-process, each checked against an oracle. See README.md.
//
//	calbench -workload serve_hot -seed 1 -seconds 10 -trace 0   one run, JSON on the last line
//	calbench -seed 1 [-runs N]                                  every workload, untraced and traced
//	calbench -compare A.json B.json                             apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	loop     string
	rate     float64
	runs     int
	bin      string
	outDir   string
	specPath string
}

func main() {
	var o options
	compare := flag.Bool("compare", false, "compare two result files: calbench -compare A.json B.json")
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all of them, untraced then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run, which reports the per-layer metrics")
	flag.StringVar(&o.loop, "loop", "closed", "timed phase of a serving workload: closed | open")
	flag.Float64Var(&o.rate, "rate", openRate, "requests per second of -loop open")
	flag.IntVar(&o.runs, "runs", 1, "untraced repetitions per workload when running all workloads")
	flag.StringVar(&o.bin, "calserved", filepath.Join(".bench_build", "bin", "calserved"), "calserved binary to drive")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for result, span and scratch files")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "benchmark declaration")
	flag.Parse()

	if err := run(o, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "calbench:", err)
		os.Exit(1)
	}
}

func run(o options, compare bool, args []string) error {
	sp, err := loadSpec(o.specPath)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(sp, args[0], args[1], os.Stdout)
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.loop != "closed" && o.loop != "open" {
		return fmt.Errorf("-loop must be closed or open, got %q", o.loop)
	}
	if o.workload != "" {
		rep, err := runOne(o, o.workload, o.trace != 0)
		if err != nil {
			return err
		}
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !rep.Correct {
			return fmt.Errorf("%s: %d of %d operations failed or were wrong", o.workload, rep.Failed, rep.Attempted)
		}
		return nil
	}
	return runAll(o)
}

// runOne executes one workload once and prints its metrics by name.
func runOne(o options, name string, traced bool) (report, error) {
	var values map[string]float64
	var attempted int
	var fails []string
	var spans []span
	switch {
	case name == "cron_fleet":
		res, err := runCron(cronFull, o.seed, o.seconds, traced, o.outDir)
		if err != nil {
			return report{}, err
		}
		values, attempted, fails, spans = res.metrics(traced), res.attempted, res.fails, res.spans
	case serveWorkloads[name] != nil:
		res, err := runServe(o, name, traced)
		if err != nil {
			return report{}, err
		}
		values, attempted, fails = res.metrics(traced), res.attempted, res.fails
		if traced {
			spans = res.replay.spans
		}
	default:
		return report{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if traced {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return report{}, err
		}
		if err := writeSpans(filepath.Join(o.outDir, "trace-"+name+".jsonl"), spans); err != nil {
			return report{}, err
		}
		printAttribution(os.Stdout, spans)
	}
	for i, f := range fails {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "calbench: ... and %d more\n", len(fails)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "calbench: FAIL", f)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep := newReport(defs, values, attempted, len(fails))
	fmt.Printf("# %s seed=%d seconds=%g trace=%t attempted=%d failed=%d\n", name, o.seed, o.seconds, traced, attempted, len(fails))
	for _, d := range defs {
		fmt.Printf("%-28s %14.4f %s\n", d.Name, values[d.Name], d.Unit)
	}
	return rep, nil
}

// metrics maps a serving run onto the declared metric names.
func (r *serveResult) metrics(traced bool) map[string]float64 {
	if !traced {
		return map[string]float64{
			"setup_s":       median(r.setupS),
			"ops_per_s":     median(r.opsPerS),
			"p50_ms":        median(r.p50Ms),
			"tail_ms":       median(r.tailMs),
			"cpu_ms_per_op": median(r.cpuMsPerOp),
			"rss_mb":        r.rssMB,
		}
	}
	m := map[string]float64{
		"loadgen.rss_peak_mb":      r.rssPeakMB,
		"loadgen.ref_wall_ms":      median(r.refWallMs),
		"matcache.evictions":       float64(r.cache.Evictions),
		"matcache.flights":         float64(r.cache.Flights),
		"matcache.resident_mb":     float64(r.cache.Bytes) / (1 << 20),
		"loadgen.p99_ms":           r.p99Ms,
		"loadgen.open_p95_ms":      r.openP95Ms,
		"loadgen.open_late_p99_ms": r.openLateP99,
	}
	if total := r.cache.Hits + r.cache.Misses; total > 0 {
		m["matcache.hit_ratio"] = float64(r.cache.Hits) / float64(total)
	}
	for c, name := range classNames {
		m["loadgen."+name+".p50_ms"] = r.classP50Ms[c]
	}
	rp := r.replay
	stage := func(name string) float64 { return median(rp.expandStages[name]) }
	m["serve.handler_us"] = median(rp.handlerUs)
	sum := 0.0
	for metricName, spanName := range map[string]string{
		"serve.decode_us":        "serve.decode",
		"serve.recur_compile_us": "serve.recur_compile",
		"vet.vet_us":             "vet.vet",
		"caldb.eval_us":          "caldb.eval",
		"calendar.flatten_us":    "calendar.flatten",
		"chronology.format_us":   "chronology.format",
		"serve.encode_us":        "serve.encode",
	} {
		m[metricName] = stage(spanName)
		sum += m[metricName]
	}
	m["serve.unattributed_us"] = m["serve.handler_us"] - sum
	m["serve.intervals_per_req"] = median(rp.intervals)
	m["serve.resp_bytes_per_req"] = median(rp.respBytes)
	m["caldb.eval_hit_us"] = median(rp.evalHitUs)
	m["caldb.eval_miss_us"] = median(rp.evalMissUs)
	if n := len(rp.evalHitUs) + len(rp.evalMissUs); n > 0 {
		m["caldb.eval_miss_share"] = 100 * float64(len(rp.evalMissUs)) / float64(n)
	}
	spans := byName(rp.spans)
	for metricName, spanName := range map[string]string{
		"serve.share_lookup_us": "serve.share_lookup",
		"caldb.replace_us":      "caldb.replace",
		"caldb.define_us":       "caldb.define",
		"caldb.drop_us":         "caldb.drop",
		"rules.define_rule_us":  "rules.define_rule",
	} {
		m[metricName] = median(spans[spanName])
	}
	for metricName, isoName := range map[string]string{
		"callang.parse_us":    "callang.parse",
		"plan.prepare_us":     "plan.prepare",
		"plan.compile_us":     "plan.compile",
		"plan.exec_us":        "plan.exec",
		"plan.sched_build_us": "plan.sched_build",
		"plan.sched_next_us":  "plan.sched_next",
	} {
		m[metricName] = median(rp.iso[isoName])
	}
	m["loadgen.http_overhead_us"] = r.classP50Ms[clsExpand]*1e3 - m["serve.handler_us"]
	if rp.untracedNs > 0 {
		m["trace.overhead_ratio"] = float64(rp.tracedNs) / float64(rp.untracedNs)
	}
	return m
}

// metrics maps a cron_fleet run onto the declared metric names.
func (r *cronResult) metrics(traced bool) map[string]float64 {
	if !traced {
		asc := sorted(r.dayMs)
		return map[string]float64{
			"setup_s":       median(r.setupS),
			"ops_per_s":     median(r.roundRate),
			"p50_ms":        percentile(asc, 50),
			"tail_ms":       percentile(asc, cronTail),
			"cpu_ms_per_op": median(r.cpuMsPerOp),
			"rss_mb":        median(r.rssMB),
		}
	}
	m := map[string]float64{
		"loadgen.rss_peak_mb":        r.rssPeakMB,
		"loadgen.ref_cpu_ms":         median(r.refCPUMs),
		"rules.define_us_per_rule":   r.defineUsPerRule,
		"rules.advance_day_nodur_ms": r.nodurDayMs,
		"rules.fire_nodur_us":        r.nodurFireUs,
		"rules.reattach_ms":          median(r.reattachMs),
		"rules.recover_ms":           median(r.recoverMs),
		"rules.refired_after_crash":  float64(r.refired),
		"journal.ack_us":             r.ackUs,
		"journal.replay_ms":          median(r.replayMs),
		"journal.compact_ms":         median(r.compactMs),
		"journal.bytes_per_firing":   float64(r.journalByte) / float64(r.firings),
		"store.snapshot_save_ms":     median(r.saveMs),
		"store.snapshot_load_ms":     median(r.loadMs),
		"store.snapshot_mb":          r.snapshotMB,
		"store.rows_lost_on_crash":   float64(r.rowsLost),
		"shard.advance_day_ms":       r.shardDayMs,
		"cron.recovery_ms":           median(r.recoveryS) * 1e3,
		"cron.firings":               float64(r.firings),
	}
	if r.durableFireUs > 0 {
		m["journal.fsync_share"] = 1 - r.nodurFireUs/r.durableFireUs
	}
	return m
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Stamp    stamp                           `json:"stamp"`
	Seed     int64                           `json:"seed"`
	Seconds  float64                         `json:"seconds"`
	EndToEnd map[string]map[string][]float64 `json:"end_to_end"` // workload -> metric -> one value per run
	PerLayer map[string]map[string]float64   `json:"per_layer"`  // workload -> metric -> traced run
}

// runAll executes every workload -runs times untraced and once traced,
// prints median and quartiles per metric and writes the result file.
func runAll(o options) error {
	out := resultFile{Stamp: machineStamp(), Seed: o.seed, Seconds: o.seconds,
		EndToEnd: map[string]map[string][]float64{}, PerLayer: map[string]map[string]float64{}}
	fmt.Printf("# %s, nproc %d, GOMAXPROCS %d, %s\n", out.Stamp.CPUModel, out.Stamp.NumCPU, out.Stamp.GOMAXPROCS, out.Stamp.GoVersion)
	failed := 0
	for _, name := range workloadNames {
		out.EndToEnd[name] = map[string][]float64{}
		for i := 0; i < o.runs; i++ {
			rep, err := runOne(o, name, false)
			if err != nil {
				return err
			}
			failed += rep.Failed
			for k, v := range rep.Metrics {
				out.EndToEnd[name][k] = append(out.EndToEnd[name][k], v.Value)
			}
		}
		rep, err := runOne(o, name, true)
		if err != nil {
			return err
		}
		failed += rep.Failed
		out.PerLayer[name] = map[string]float64{}
		for k, v := range rep.Metrics {
			out.PerLayer[name][k] = v.Value
		}
	}
	fmt.Printf("\n%-12s %-16s %6s %14s %14s %14s %8s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			vs := out.EndToEnd[name][d.Name]
			q1, q2, q3 := quartiles(vs)
			fmt.Printf("%-12s %-16s %6d %14.4f %14.4f %14.4f %7.1f%%\n", name, d.Name, len(vs), q1, q2, q3, 100*spread(vs))
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("result-seed%d.json", o.seed))
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if failed > 0 {
		return fmt.Errorf("%d operations failed or were wrong", failed)
	}
	return nil
}
