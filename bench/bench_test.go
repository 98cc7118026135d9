package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"testing"
)

// streamBytes concatenates the rendered requests of a workload's streams.
func streamBytes(w *workload) []byte {
	var buf bytes.Buffer
	for c := range w.streams {
		for _, idx := range w.streams[c] {
			buf.Write(w.entries[idx].raw)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameStreams(t *testing.T) {
	for name, build := range serveWorkloads {
		a, err := build(7, 150, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := build(7, 150, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := build(8, 150, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(streamBytes(a), streamBytes(b)) {
			t.Errorf("%s: the same seed gave different request streams", name)
		}
		if bytes.Equal(streamBytes(a), streamBytes(c)) {
			t.Errorf("%s: different seeds gave the same request streams", name)
		}
		for ci := range a.streams {
			if len(a.streams[ci]) == 0 {
				t.Errorf("%s: connection %d has no requests", name, ci)
			}
		}
	}
}

// Each serving workload, replayed in-process: every response of the head of
// the stream passes the oracle check, and the traced replay's replica
// reproduces the handler's bytes.
func TestServeSmoke(t *testing.T) {
	for name, build := range serveWorkloads {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := build(3, 100, true)
			if err != nil {
				t.Fatal(err)
			}
			w.replayN = 20
			p, err := newInproc(w, "smoke-")
			if err != nil {
				t.Fatal(err)
			}
			for ci := range w.streams {
				for _, idx := range w.streams[ci] {
					e := w.entries[idx]
					_, path, _ := e.op.wire(p.tenantName(w, e.op.tenant))
					status, body := p.serveHTTP(e.method, path, e.body)
					if err := e.check(status, body); err != nil {
						t.Fatal(err)
					}
				}
			}
			res, err := replay(w)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if len(res.fails) > 0 {
				t.Errorf("replay: %d failures, first: %s", len(res.fails), res.fails[0])
			}
			if res.attempted < 2*w.replayN || len(res.spans) == 0 {
				t.Errorf("replay attempted %d operations and recorded %d spans", res.attempted, len(res.spans))
			}
		})
	}
}

// A wrong response must fail the check, on first sight and on a repeat.
func TestCheckRejectsWrongResponses(t *testing.T) {
	w, err := buildHot(1, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newInproc(w, "neg-")
	if err != nil {
		t.Fatal(err)
	}
	var e *entry
	for _, cand := range w.entries {
		if cand.op.kind == opExpand {
			e = cand
			break
		}
	}
	_, path, _ := e.op.wire(p.tenantName(w, e.op.tenant))
	status, body := p.serveHTTP(e.method, path, e.body)
	tampered := bytes.Replace(body, []byte(`"count": `), []byte(`"count": 1`), 1)
	if err := e.check(status, tampered); err == nil {
		t.Error("a response with a wrong count passed the oracle")
	}
	if err := e.check(status, body); err != nil {
		t.Fatal(err)
	}
	if err := e.check(status, append(body, ' ')); err == nil {
		t.Error("a response differing from the first one seen passed")
	}
	if err := e.check(500, body); err == nil {
		t.Error("an unexpected status passed")
	}
}

func TestCronSmoke(t *testing.T) {
	size := cronSize{rules: 500, distinct: 50, days: 10, checkpointEvery: 3, crashDay: 8,
		armDays: 5, shards: 4, journalStandalone: 20}
	res, err := runCron(size, 5, 0, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.fails) > 0 {
		t.Fatalf("exactly-once check: %d failures, first: %s", len(res.fails), res.fails[0])
	}
	if res.firings == 0 || res.attempted != int(res.firings) {
		t.Errorf("firings %d, attempted %d", res.firings, res.attempted)
	}
	if len(res.recoveryS) != 1 || res.refired > 1 {
		t.Errorf("recoveries %d, refired %d", len(res.recoveryS), res.refired)
	}
	if res.journalByte <= 0 || len(res.spans) == 0 || res.shardDayMs <= 0 || res.ackUs <= 0 {
		t.Errorf("missing layer numbers: %+v", res.metrics(true))
	}
	// Fixed work: a second run of the same seed repeats the counts exactly.
	again, err := runCron(size, 5, 0, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if again.firings != res.firings || again.journalByte != res.journalByte {
		t.Errorf("counts do not repeat: firings %d vs %d, journal bytes %d vs %d",
			again.firings, res.firings, again.journalByte, res.journalByte)
	}
	if len(again.setupS) < 3 {
		t.Errorf("an untraced run made %d rounds, want at least 3", len(again.setupS))
	}
}

func TestPercentiles(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {95, 95}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(asc, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{{120, 90}, {59, 50}, {100, 90}, {200, 95}, {1000, 99}, {5, 50}} {
		if got := tailPercentile(tc.n, 90, 95, 99); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 3, 7, 1, 9}, [3]float64{2, 7, 9.5}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-9 {
		t.Errorf("spread = %g, want 1", s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1, Req: 1},
		{Name: "a", Start: 10, End: 40, Parent: 0, Req: 1},
		{Name: "b", Start: 50, End: 90, Parent: 0, Req: 1},
		{Name: "a.inner", Start: 15, End: 25, Parent: 1, Req: 1},
	}
	want := []int64{30, 20, 40, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	var total int64
	for _, ns := range selfTimes(spans) {
		total += ns
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's duration 100", total)
	}
	// A nil tracer records nothing and costs nothing to call.
	var off *tracer
	off.end(off.begin("x", -1, 0))
	tr := newTracer()
	id := tr.begin("x", -1, 7)
	tr.end(id)
	if len(tr.spans) != 1 || tr.spans[0].End < tr.spans[0].Start || tr.spans[0].Req != 7 {
		t.Errorf("spans = %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
}

func TestCompareRule(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"unchanged", lower, tight, []float64{101, 100, 102}, vOK},
		{"slower within the bound", lower, tight, []float64{108, 109, 107}, vOK},
		{"slower beyond the bound", lower, tight, []float64{115, 116, 114}, vRegressed},
		{"faster", lower, tight, []float64{50, 51, 52}, vOK},
		{"throughput down beyond the bound", higher, tight, []float64{85, 86, 84}, vRegressed},
		{"throughput up", higher, tight, []float64{150, 151}, vOK},
		{"A too noisy to tell", lower, []float64{60, 100, 140, 80, 120}, []float64{105, 106}, vUnresolved},
		{"A noisy but every B run better", lower, []float64{60, 100, 140, 80, 120}, []float64{40, 50}, vOK},
		{"A noisy, throughput, every B run better", higher, []float64{60, 100, 140, 80, 120}, []float64{150, 160}, vOK},
	} {
		if got, _ := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json declares exactly the metrics and workloads the program
// emits, within the limits of the benchmark contract.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, declared, emitted []metricDef) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: %d declared, %d emitted", kind, len(declared), len(emitted))
			return
		}
		for i, d := range declared {
			if d.Name != emitted[i].Name || d.Unit != emitted[i].Unit {
				t.Errorf("%s[%d]: declared %s (%s), emitted %s (%s)", kind, i, d.Name, d.Unit, emitted[i].Name, emitted[i].Unit)
			}
			if !nameRe.MatchString(d.Name) || !unitRe.MatchString(d.Unit) {
				t.Errorf("%s: name %q or unit %q outside the contract's alphabet", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s: better = %q", kind, d.Name, d.Better)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer)
	for _, d := range sp.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d run", len(sp.Workloads), len(workloadNames))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q, why of %d characters", i, w.Name, len(w.Why))
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 || len(sp.Paths) != 1 || sp.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", sp.RunSeconds, sp.Paths)
	}
	// A report carries exactly the declared names.
	rep := newReport(endToEnd, map[string]float64{"setup_s": 1.5}, 10, 0)
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(raw, &back); err != nil || len(back.Metrics) != len(endToEnd) || !back.Correct {
		t.Errorf("report round trip: %v %+v", err, back)
	}
}
