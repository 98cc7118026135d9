package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"calsys/internal/core/matcache"
)

// server is one running calserved process.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startServer boots the calserved binary on an ephemeral port and waits for
// its "listening on" line.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-today", todayStr, "-admin-token", adminToken)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "calserved: listening on "); ok {
				lines <- addr
				break
			}
		}
		close(lines)
		_, _ = io.Copy(io.Discard, out) // keep the pipe drained until exit
		s.done <- cmd.Wait()
	}()
	select {
	case addr, ok := <-lines:
		if !ok {
			<-s.done
			return nil, fmt.Errorf("%s exited before listening", bin)
		}
		s.addr = addr
		return s, nil
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		<-s.done
		return nil, fmt.Errorf("%s did not start listening within 20s", bin)
	}
}

// stop terminates the server and waits until the process has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// clockTicksPerSecond is USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux the benchmark runs on.
const clockTicksPerSecond = 100

// cpuSeconds reads the server's user+system CPU time from /proc.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after ")".
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat: %.80s", raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat: %.80s", raw)
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// procStatusMB reads one kB-valued field of /proc/<pid>/status.
func procStatusMB(pid int, field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// conn is one keep-alive HTTP/1.1 connection driven with pre-rendered
// request bytes, so the generator spends as little CPU as it can on a machine
// it shares with the server.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	buf bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// do sends one request and reads the whole response. The returned body is
// valid until the next call.
func (c *conn) do(raw []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(raw); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// call is do for ad-hoc JSON requests (provisioning, stats).
func (c *conn) call(method, path string, body []byte) (int, []byte, error) {
	return c.do(renderRequest(method, path, body))
}

// cacheStats fetches the live server's matcache counters.
func (c *conn) cacheStats() (matcache.Stats, error) {
	var out struct {
		Matcache matcache.Stats `json:"matcache"`
	}
	status, body, err := c.call("GET", "/debug/cachestats", nil)
	if err != nil {
		return out.Matcache, err
	}
	if status != http.StatusOK {
		return out.Matcache, fmt.Errorf("GET /debug/cachestats: status %d", status)
	}
	return out.Matcache, json.Unmarshal(body, &out)
}

// provision creates the workload's tenants and applies their set-up
// operations, each connection handling the tenants it owns.
func provision(conns []*conn, w *workload) error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t, name := range w.tenants {
				if owner(t) != ci {
					continue
				}
				body, _ := json.Marshal(map[string]string{"name": name})
				status, resp, err := c.call("POST", "/v1/tenants", body)
				if err == nil && status != http.StatusCreated {
					err = fmt.Errorf("create tenant %s: status %d: %s", name, status, resp)
				}
				for i := 0; err == nil && i < len(w.provision[t]); i++ {
					o := &w.provision[t][i]
					m, p, b := o.wire(name)
					status, resp, err = c.call(m, p, b)
					if err == nil && status != o.status {
						err = fmt.Errorf("%s %s: status %d, want %d: %s", m, p, status, o.status, resp)
					}
				}
				if err != nil {
					errs[ci] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// samples are the per-request records of one connection during one phase.
type samples struct {
	dur   []int64 // latency, ns (from the due time in an open loop)
	late  []int64 // open loop: how long after its due time the request was sent
	class []opClass
	fails []string // failed or wrong responses
}

// phase drives every connection through its stream (streams holds indices
// into the workload's entries) from pos onward, until the duration has passed
// or limit requests per connection were sent (limit <= 0: no limit). With
// rate > 0 it is an open loop: requests leave on a fixed schedule of rate per
// second across all connections, and each is timed from the instant it was
// due. Otherwise it is a closed loop: a connection sends its next request when
// the previous reply has been read and checked.
func phase(conns []*conn, w *workload, streams *[nConns][]int32, pos *[nConns]int, duration time.Duration, limit int, rate float64) []samples {
	out := make([]samples, len(conns))
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &out[ci]
			stream := streams[ci]
			period := time.Duration(0)
			if rate > 0 {
				period = time.Duration(float64(len(conns)) * float64(time.Second) / rate)
			}
			for n := 0; pos[ci] < len(stream) && (limit <= 0 || n < limit); n++ {
				t0 := time.Now()
				if period > 0 {
					due := start.Add(time.Duration(n)*period + time.Duration(ci)*period/time.Duration(len(conns)))
					if due.Sub(start) >= duration {
						return
					}
					if wait := due.Sub(t0); wait > 0 {
						time.Sleep(wait)
					}
					sent := time.Now()
					s.late = append(s.late, int64(sent.Sub(due)))
					t0 = due
				} else if t0.Sub(start) >= duration {
					return
				}
				e := w.entries[stream[pos[ci]]]
				pos[ci]++
				status, body, err := c.do(e.raw)
				t1 := time.Now()
				if err == nil {
					err = e.check(status, body)
				}
				if err != nil {
					s.fails = append(s.fails, err.Error())
					if status == 0 {
						return // the connection is broken
					}
					continue
				}
				s.dur = append(s.dur, int64(t1.Sub(t0)))
				s.class = append(s.class, e.op.class())
			}
		}()
	}
	wg.Wait()
	return out
}
