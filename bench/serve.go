package main

import (
	"fmt"
	"os"
	"time"

	"calsys/internal/core/matcache"
)

// How a serving run is laid out. Set-up is repeated on fresh server processes
// and its median reported; the last instance then serves the warm-up and the
// timed phase.
const (
	setupRepsMin  = 3
	setupRepsMax  = 7
	setupBudget   = 3.0 // seconds: a cheap set-up is repeated up to setupRepsMax times within it
	warmSeconds   = 2.0
	sliceSeconds  = 1.0 // the timed phase is cut into slices; medians over slices are reported
	openSeconds   = 4.0 // the open-loop diagnostic of the traced serve_hot run
	openRate      = 150.0
	streamPerConn = 250_000 // pre-generated requests per connection
	serveTail     = 95.0    // tail_ms of a serving workload: p95 of each slice
	cronTail      = 90.0    // tail_ms of cron_fleet: p90 of the probe days (59 a round)
)

// serveResult is everything one serving run measures.
type serveResult struct {
	setupS    []float64
	attempted int
	fails     []string

	// per timed slice, scaled by the reference bursts around it
	opsPerS, p50Ms, tailMs, cpuMsPerOp []float64
	refWallMs                          []float64 // the reference burst wall time of each slice
	rssMB                              float64   // median VmRSS over the slice boundaries
	rssPeakMB                          float64   // VmHWM: set by sub-second bursts, a diagnostic

	// whole timed phase
	n           int
	p99Ms       float64
	classP50Ms  [nClasses]float64
	cache       matcache.Stats // delta over the timed phase; Bytes is the final residency
	openP95Ms   float64
	openLateP99 float64
	replay      *replayResult
}

// stageSetup boots one server, provisions the workload and runs the cold
// pass: the first coldN requests of each stream, which fill the caches a
// steady client would find filled. Its wall time is scaled by the reference
// bursts before and after it.
func stageSetup(bin string, ref *refLoad, w *workload, pos *[nConns]int, res *serveResult) (*server, []*conn, error) {
	before, err := ref.burst()
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	srv, err := startServer(bin)
	if err != nil {
		return nil, nil, err
	}
	conns := make([]*conn, nConns)
	fail := func(err error) (*server, []*conn, error) {
		for _, c := range conns {
			if c != nil {
				c.close()
			}
		}
		srv.stop()
		return nil, nil, err
	}
	for i := range conns {
		if conns[i], err = dial(srv.addr); err != nil {
			return fail(err)
		}
	}
	if err := provision(conns, w); err != nil {
		return fail(err)
	}
	*pos = [nConns]int{}
	cold := phase(conns, w, &w.streams, pos, time.Hour, w.coldN, 0)
	raw := time.Since(t0).Seconds()
	after, err := ref.burst()
	if err != nil {
		return fail(err)
	}
	res.setupS = append(res.setupS, raw*refNominalWallMs/before.mean(after).wallMs)
	res.collectFails(cold)
	return srv, conns, nil
}

func (r *serveResult) collectFails(ss []samples) {
	for _, s := range ss {
		r.attempted += len(s.dur) + len(s.fails)
		r.fails = append(r.fails, s.fails...)
	}
}

// runServe measures one serving workload against the real calserved binary.
func runServe(o options, name string, traced bool) (*serveResult, error) {
	build := serveWorkloads[name]
	t0 := time.Now()
	w, err := build(o.seed, streamPerConn, false)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "calbench: %s: %d distinct requests generated and evaluated by the oracle in %.1fs\n",
		name, len(w.entries), time.Since(t0).Seconds())
	ref, err := startRefLoad()
	if err != nil {
		return nil, err
	}
	defer ref.stop()
	res := &serveResult{}
	var pos [nConns]int
	var srv *server
	var conns []*conn
	for rep, began := 0, time.Now(); rep < setupRepsMin || rep < setupRepsMax && time.Since(began).Seconds() < setupBudget; rep++ {
		if srv != nil {
			for _, c := range conns {
				c.close()
			}
			srv.stop()
		}
		if srv, conns, err = stageSetup(o.bin, ref, w, &pos, res); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, c := range conns {
			c.close()
		}
		srv.stop()
	}()

	// Warm-up: a read-only workload first asks for each of its distinct
	// requests once, so that the timed phase starts from the cache contents
	// it would converge to; then every workload runs its stream untimed.
	var warmPos [nConns]int
	touch := phase(conns, w, &w.warm, &warmPos, time.Hour, 0, 0)
	res.collectFails(touch)
	warm := phase(conns, w, &w.streams, &pos, time.Duration(warmSeconds*float64(time.Second)), 0, 0)
	res.collectFails(warm)

	admin, err := dial(srv.addr)
	if err != nil {
		return nil, err
	}
	defer admin.close()
	before, err := admin.cacheStats()
	if err != nil {
		return nil, err
	}

	// The timed phase: slices of load with a reference burst before the
	// first, between every two and after the last.
	duration := time.Duration(o.seconds * float64(time.Second))
	slice := time.Duration(sliceSeconds * float64(time.Second))
	nSlices := int(duration / slice)
	if nSlices < 1 {
		nSlices, slice = 1, duration
	}
	openRateArg := 0.0
	if o.loop == "open" {
		openRateArg = o.rate
	}
	slices := make([]sliceRec, nSlices)
	var rssNow []float64
	burst, err := ref.burst()
	if err != nil {
		return nil, err
	}
	for i := range slices {
		s := &slices[i]
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		part := phase(conns, w, &w.streams, &pos, slice, 0, openRateArg)
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		res.collectFails(part)
		if mb, err := procStatusMB(srv.cmd.Process.Pid, "VmRSS:"); err == nil {
			rssNow = append(rssNow, mb)
		}
		next, err := ref.burst()
		if err != nil {
			return nil, err
		}
		s.cpuS, s.refWallMs = cpu1-cpu0, burst.mean(next).wallMs
		burst = next
		for _, p := range part {
			for k, d := range p.dur {
				s.dur = append(s.dur, float64(d)/1e6)
				s.class = append(s.class, p.class[k])
			}
		}
	}

	after, err := admin.cacheStats()
	if err != nil {
		return nil, err
	}
	res.cache = matcache.Stats{
		Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions, Flights: after.Flights - before.Flights,
		Bytes: after.Bytes,
	}
	if res.rssPeakMB, err = procStatusMB(srv.cmd.Process.Pid, "VmHWM:"); err != nil {
		return nil, err
	}
	res.rssMB = median(rssNow)
	res.summarize(slices, slice)
	fmt.Fprintf(os.Stderr, "calbench: %s: timed phase n=%d, scaled req/s per slice %.0f, reference bursts %.0f ms; cache hits %d misses %d evictions %d resident %.1f MB\n",
		name, res.n, res.opsPerS, res.refWallMs, res.cache.Hits, res.cache.Misses, res.cache.Evictions, float64(res.cache.Bytes)/(1<<20))

	if !traced {
		return res, nil
	}
	if name == "serve_hot" {
		open := phase(conns, w, &w.streams, &pos, time.Duration(openSeconds*float64(time.Second)), 0, openRate)
		res.collectFails(open)
		var durs, late []float64
		for _, s := range open {
			for i := range s.dur {
				durs = append(durs, float64(s.dur[i])/1e6)
			}
			for _, l := range s.late {
				late = append(late, float64(l)/1e6)
			}
		}
		res.openP95Ms = percentile(sorted(durs), 95)
		res.openLateP99 = percentile(sorted(late), 99)
	}
	if res.replay, err = replay(w); err != nil {
		return nil, err
	}
	res.attempted += res.replay.attempted
	res.fails = append(res.fails, res.replay.fails...)
	return res, nil
}

// sliceRec is one stretch of the timed phase.
type sliceRec struct {
	dur       []float64 // latencies, ms, of every connection
	class     []opClass
	cpuS      float64 // calserved's CPU seconds inside the slice
	refWallMs float64 // mean wall time of the reference bursts before and after it
}

// summarize reduces the timed phase to per-slice values, each scaled by the
// reference bursts around it, and whole-phase diagnostics, which are not
// scaled. Slices are merged until each holds enough requests for ten to lie
// beyond the tail percentile (a workload that answers 150 requests a second
// gets 2 s slices).
func (r *serveResult) summarize(slices []sliceRec, slice time.Duration) {
	for _, s := range slices {
		r.n += len(s.dur)
	}
	if r.n == 0 {
		return
	}
	need := 10 / (1 - serveTail/100) * 1.1 // samples a slice should hold, with a margin
	merge := int(need*float64(len(slices))/float64(r.n)) + 1
	if merge > len(slices) {
		merge = len(slices)
	}
	wall := (time.Duration(merge) * slice).Seconds()

	var durs []float64
	var byClass [nClasses][]float64
	for g := 0; g+merge <= len(slices); g += merge {
		var d []float64
		cpuS, refWallMs := 0.0, 0.0
		for _, s := range slices[g : g+merge] {
			d = append(d, s.dur...)
			cpuS += s.cpuS
			refWallMs += s.refWallMs / float64(merge)
			for k, ms := range s.dur {
				byClass[s.class[k]] = append(byClass[s.class[k]], ms)
			}
		}
		durs = append(durs, d...)
		if len(d) == 0 {
			continue
		}
		if tailPercentile(len(d), serveTail) != serveTail {
			fmt.Fprintf(os.Stderr, "calbench: slice %d has only %d samples: fewer than ten lie beyond p%g\n", g/merge, len(d), serveTail)
		}
		asc := sorted(d)
		scale := refNominalWallMs / refWallMs
		r.refWallMs = append(r.refWallMs, refWallMs)
		r.opsPerS = append(r.opsPerS, float64(len(d))/wall/scale)
		r.p50Ms = append(r.p50Ms, percentile(asc, 50)*scale)
		r.tailMs = append(r.tailMs, percentile(asc, serveTail)*scale)
		r.cpuMsPerOp = append(r.cpuMsPerOp, cpuS*1e3/float64(len(d))*scale)
	}
	r.p99Ms = percentile(sorted(durs), 99)
	for c := range byClass {
		r.classP50Ms[c] = median(byClass[c])
	}
}
