package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The machine this benchmark was written on is a virtual guest whose speed
// wanders: the same binary on the same inputs read 20-45% slower an hour
// later, and during some minutes 3-6 times slower, on every timing metric of
// every workload, while nothing else ran in the guest. A bound of 25% cannot
// be held against that, so every end-to-end timing is reported relative to a
// reference load measured right before and right after it.
//
// The reference load is an HTTP server inside calbench built from the
// standard library only — nothing a later change to the repository can make
// faster or slower — answering requests that cost what calserved's cost in
// kind: decode a JSON body, allocate and sort, format dates, encode an
// indented JSON answer, in three sizes from a few hundred microseconds to
// several milliseconds. One burst is a fixed sequence of them, driven the way
// calserved is driven, by nConns closed-loop keep-alive connections.
//
// A burst yields two numbers. Its wall time moves with the machine the way a
// serving run's latencies do: both are mostly waits for the other side to be
// woken. Its CPU time moves the way one goroutine that only computes does,
// which is what a cron_fleet round is; a wall-clock reference over-corrects
// that (measured: the round's timings follow the 0.3rd power of the burst's
// wall time). So serving runs are scaled by wall time and cron_fleet by CPU
// time. README.md has the measurements behind this.

// refSizes are the intervals per answer of the three request sizes, and
// refSeq is one burst: per connection, indices into refSizes in sending
// order (105 small, 12 medium, 3 large).
var (
	refSizes = [3]int{120, 1000, 5000}
	refSeq   = func() []int {
		seq := make([]int, 120)
		for i := range seq {
			switch {
			case (i+1)%40 == 0:
				seq[i] = 2
			case (i+1)%8 == 0:
				seq[i] = 1
			}
		}
		return seq
	}()
)

// The burst times every timing is scaled to: the medians on the machine the
// benchmark was written on in a calm hour, so that scaled numbers read like
// that machine's. Any constants would do; changing them changes every
// end-to-end timing by the same factor.
const (
	refNominalWallMs = 150.0
	refNominalCPUMs  = 250.0
)

// burstTime is what one reference burst took.
type burstTime struct{ wallMs, cpuMs float64 }

// mean is the reference for a stretch of work between two bursts.
func (a burstTime) mean(b burstTime) burstTime {
	return burstTime{(a.wallMs + b.wallMs) / 2, (a.cpuMs + b.cpuMs) / 2}
}

type refReq struct {
	N int `json:"n"`
}

type refResp struct {
	Count     int            `json:"count"`
	Intervals []intervalJSON `json:"intervals"`
}

func refHandler(w http.ResponseWriter, r *http.Request) {
	var q refReq
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil || q.N <= 0 || q.N > 10000 {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	refWork(w, q.N)
}

// refWork answers one reference request of n intervals.
func refWork(w io.Writer, n int) {
	type iv struct{ lo, hi int }
	ivs := make([]*iv, 0, n*8)
	x := uint32(2463534242)
	for i := 0; i < n*8; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		ivs = append(ivs, &iv{lo: int(x % 40000), hi: int(x%40000) + 1})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	seen := make(map[int]bool, n)
	resp := refResp{}
	for _, v := range ivs {
		if len(resp.Intervals) == n {
			break
		}
		if seen[v.lo] {
			continue
		}
		seen[v.lo] = true
		s := fmt.Sprintf("%04d-%02d-%02d", 1990+v.lo/372, 1+v.lo/31%12, 1+v.lo%31)
		resp.Intervals = append(resp.Intervals, intervalJSON{Start: s, End: s})
	}
	resp.Count = len(resp.Intervals)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp) // a failed write shows as an error on the reading side
}

// refLoad is the running reference server and the connections that drive it.
type refLoad struct {
	srv   *http.Server
	done  chan struct{}
	conns []*conn
	raws  [len(refSizes)][]byte
}

func startRefLoad() (*refLoad, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rl := &refLoad{srv: &http.Server{Handler: http.HandlerFunc(refHandler)}, done: make(chan struct{})}
	go func() {
		_ = rl.srv.Serve(ln) // returns when stop closes the server
		close(rl.done)
	}()
	for i := 0; i < nConns; i++ {
		c, err := dial(ln.Addr().String())
		if err != nil {
			rl.stop()
			return nil, err
		}
		rl.conns = append(rl.conns, c)
	}
	for i, n := range refSizes {
		body, _ := json.Marshal(refReq{N: n})
		rl.raws[i] = renderRequest("POST", "/ref", body)
	}
	if _, err := rl.burst(); err != nil { // the first burst also grows buffers and starts goroutines
		rl.stop()
		return nil, err
	}
	return rl, nil
}

// stop closes the connections and the server and waits for it to end.
func (rl *refLoad) stop() {
	for _, c := range rl.conns {
		c.close()
	}
	_ = rl.srv.Close()
	<-rl.done
}

// selfCPUMs is calbench's own user+system CPU time.
func selfCPUMs() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	ms := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return ms(ru.Utime) + ms(ru.Stime), nil
}

// burst runs the fixed reference work once.
func (rl *refLoad) burst() (burstTime, error) {
	errs := make([]error, len(rl.conns))
	cpu0, err := selfCPUMs()
	if err != nil {
		return burstTime{}, err
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for ci, c := range rl.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, size := range refSeq {
				status, _, err := c.do(rl.raws[size])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("reference load: status %d", status)
				}
				if err != nil {
					errs[ci] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds() * 1e3
	cpu1, err := selfCPUMs()
	if err != nil {
		return burstTime{}, err
	}
	for _, err := range errs {
		if err != nil {
			return burstTime{}, err
		}
	}
	return burstTime{wall, cpu1 - cpu0}, nil
}
