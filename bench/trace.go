package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share req; parent
// is the index of the span that caused this one, or -1 at the root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same call sites serve the untraced replay that tracing
// overhead is measured against. It is used from one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index (-1 when not tracing).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover, in nanoseconds, indexed like spans.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// byName collects, per span name, the durations in microseconds of the spans
// with that name.
func byName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
	}
	return out
}

// printAttribution writes the additive view of a trace: per span name, how
// many spans, their median duration, and the self time they sum to with its
// share of all traced time. Medians say what a typical call costs; only self
// time sums say where the run went (a stage with a heavy tail can be small in
// the first and large in the second).
func printAttribution(w io.Writer, spans []span) {
	self := map[string]float64{}
	total := 0.0
	for i, ns := range selfTimes(spans) {
		self[spans[i].Name] += float64(ns) / 1e6
		total += float64(ns) / 1e6
	}
	durs := byName(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%-24s %8s %12s %12s %7s\n", "span", "n", "median us", "self ms", "share")
	for _, name := range names {
		fmt.Fprintf(w, "%-24s %8d %12.1f %12.1f %6.1f%%\n", name, len(durs[name]), median(durs[name]), self[name], 100*self[name]/total)
	}
}

// writeSpans writes one JSON object per span, with its self time, to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for i, s := range spans {
		rec := struct {
			ID int `json:"id"`
			span
			Self int64 `json:"self_ns"`
		}{i, s, self[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
