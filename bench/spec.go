package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// The workloads, in the order a full run executes them.
var workloadNames = []string{"serve_hot", "serve_wide", "serve_bulk", "serve_churn", "cron_fleet"}

// The end-to-end metrics. Every workload reports every one of them. The four
// timings are scaled by the reference bursts measured around them (calib.go):
// they say what the work would have taken had the machine run the reference
// load at its nominal speed. rss_mb is not scaled.
//
//	ops_per_s      completed requests per second over 2 closed-loop
//	               connections; committed firings per wall second of a
//	               cron_fleet round (checkpoints and crash recovery included)
//	p50_ms         median request latency; median AdvanceTo(+1 day)
//	tail_ms        p95 request latency; p90 probe day (120 days leave ten
//	               samples beyond p90, not beyond p95)
//	cpu_ms_per_op  calserved's utime+stime per completed request; calbench's
//	               own per committed firing
//	rss_mb         resident set of calserved, median of the samples taken at
//	               the slice boundaries; of calbench at the end of each
//	               cron_fleet round. (The peak, VmHWM, is set by sub-second
//	               bursts during warm-up and differs 2x between runs of one
//	               commit; it is the diagnostic loadgen.rss_peak_mb.)
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "ops_per_s", Unit: "1/s"},
	{Name: "p50_ms", Unit: "ms"},
	{Name: "tail_ms", Unit: "ms"},
	{Name: "cpu_ms_per_op", Unit: "ms"},
	{Name: "rss_mb", Unit: "MB"},
}

// The per-layer metrics of the traced run. A metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{Name: "serve.decode_us", Unit: "us"},
	{Name: "serve.recur_compile_us", Unit: "us"},
	{Name: "serve.share_lookup_us", Unit: "us"},
	{Name: "serve.encode_us", Unit: "us"},
	{Name: "serve.handler_us", Unit: "us"},
	{Name: "serve.unattributed_us", Unit: "us"},
	{Name: "serve.intervals_per_req", Unit: "count"},
	{Name: "serve.resp_bytes_per_req", Unit: "B"},
	{Name: "callang.parse_us", Unit: "us"},
	{Name: "vet.vet_us", Unit: "us"},
	{Name: "plan.prepare_us", Unit: "us"},
	{Name: "plan.compile_us", Unit: "us"},
	{Name: "plan.exec_us", Unit: "us"},
	{Name: "plan.sched_build_us", Unit: "us"},
	{Name: "plan.sched_next_us", Unit: "us"},
	{Name: "caldb.eval_us", Unit: "us"},
	{Name: "caldb.eval_hit_us", Unit: "us"},
	{Name: "caldb.eval_miss_us", Unit: "us"},
	{Name: "caldb.eval_miss_share", Unit: "%"},
	{Name: "caldb.replace_us", Unit: "us"},
	{Name: "caldb.define_us", Unit: "us"},
	{Name: "caldb.drop_us", Unit: "us"},
	{Name: "matcache.hit_ratio", Unit: "ratio"},
	{Name: "matcache.evictions", Unit: "count"},
	{Name: "matcache.flights", Unit: "count"},
	{Name: "matcache.resident_mb", Unit: "MB"},
	{Name: "calendar.flatten_us", Unit: "us"},
	{Name: "chronology.format_us", Unit: "us"},
	{Name: "rules.define_us_per_rule", Unit: "us"},
	{Name: "rules.define_rule_us", Unit: "us"},
	{Name: "rules.advance_day_nodur_ms", Unit: "ms"},
	{Name: "rules.fire_nodur_us", Unit: "us"},
	{Name: "rules.reattach_ms", Unit: "ms"},
	{Name: "rules.recover_ms", Unit: "ms"},
	{Name: "rules.refired_after_crash", Unit: "count"},
	{Name: "journal.ack_us", Unit: "us"},
	{Name: "journal.fsync_share", Unit: "ratio"},
	{Name: "journal.replay_ms", Unit: "ms"},
	{Name: "journal.compact_ms", Unit: "ms"},
	{Name: "journal.bytes_per_firing", Unit: "B"},
	{Name: "store.snapshot_save_ms", Unit: "ms"},
	{Name: "store.snapshot_load_ms", Unit: "ms"},
	{Name: "store.snapshot_mb", Unit: "MB"},
	{Name: "store.rows_lost_on_crash", Unit: "count"},
	{Name: "shard.advance_day_ms", Unit: "ms"},
	{Name: "cron.recovery_ms", Unit: "ms"},
	{Name: "cron.firings", Unit: "count"},
	{Name: "loadgen.http_overhead_us", Unit: "us"},
	{Name: "loadgen.p99_ms", Unit: "ms"},
	{Name: "loadgen.expand.p50_ms", Unit: "ms"},
	{Name: "loadgen.next.p50_ms", Unit: "ms"},
	{Name: "loadgen.read.p50_ms", Unit: "ms"},
	{Name: "loadgen.write.p50_ms", Unit: "ms"},
	{Name: "loadgen.open_p95_ms", Unit: "ms"},
	{Name: "loadgen.open_late_p99_ms", Unit: "ms"},
	{Name: "loadgen.rss_peak_mb", Unit: "MB"},
	{Name: "loadgen.ref_wall_ms", Unit: "ms"},
	{Name: "loadgen.ref_cpu_ms", Unit: "ms"},
	{Name: "trace.overhead_ratio", Unit: "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newReport builds a report holding exactly the declared metrics, zero where
// values has nothing.
func newReport(defs []metricDef, values map[string]float64, attempted, failed int) report {
	r := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		r.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return r
}

// stamp identifies the machine and toolchain a result was measured on; it is
// written into every result file.
type stamp struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func machineStamp() stamp {
	st := stamp{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return st
}
