package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"calsys"
	"calsys/internal/chronology"
	"calsys/internal/core/interval"
	"calsys/internal/core/periodic"
)

// expandFlushBytes is how much of an /expand response is formatted before it
// is handed to the ResponseWriter: the response bytes a request holds at any
// time, and the most formatting a vanished client can still cost.
const expandFlushBytes = 64 << 10

// A lattice is a pooled /expand body buffer: a latticeHead-byte region the
// header is right-aligned into, then latticeSlots copies of the element text,
// so that an element costs its two dates. A body overwrites that template only
// at the first comma and after the last element, and puts both back.
type lattice struct {
	b   [latticeHead + latticeSlots*len(element)]byte
	run [128]interval.Interval // a pattern's elements, formed by index a run at a time
}

// A full lattice, ⌈expandFlushBytes / len(element)⌉ elements, is one flush of
// at least expandFlushBytes. A header longer than latticeHead is appended.
const latticeHead, latticeSlots = 1 << 10, (expandFlushBytes + len(element) - 1) / len(element)

var lattices = sync.Pool{New: func() any {
	lat := new(lattice)
	copy(lat.b[latticeHead:], strings.Repeat(element, latticeSlots))
	return lat
}}

// expandEncoder streams the success body of POST /expand: the indented JSON
// object {expr, granularity, count, intervals: [{start, end}, …]} that
// encoding/json printed for it before, byte for byte, formatted straight from
// the result's ticks.
type expandEncoder struct {
	ctx context.Context
	w   io.Writer

	ch *chronology.Chronology
	g  chronology.Granularity
	// The window. An interval is reported when it overlaps win, the units
	// holding the window's first and last seconds; its dates are clipped to
	// the rata days [fromDay, toDay].
	win            interval.Interval
	fromDay, toDay int64

	cur     chronology.CivilCursor // the month of the last date written
	flushed bool                   // a flush has gone out, and with it the status
	size    int                    // the body's length when known before its end, else 0
}

// An expandSource is a result as encodeExpand reads it: a plan's calendar, or
// else the pattern of the whole element list in ticks of g (nil: empty).
type expandSource struct {
	g   chronology.Granularity
	cal *calsys.Calendar
	pat *periodic.Patched
}

// encodeExpand writes the expansion src of expr over the civil window [from,
// to] to w. Selection inside a grouping unit can reach slightly outside the
// requested window (the engine expands whole containing units), so intervals
// are clipped to the window the client asked for and those wholly outside it
// are dropped. It stops at the first failed Write, and at the first flush
// that finds ctx done. When w is a ResponseWriter the first flush commits the
// 200, with a Content-Length when the body's length is known (see flush).
func encodeExpand(ctx context.Context, w io.Writer, ch *chronology.Chronology,
	expr string, src expandSource, from, to chronology.Civil) error {
	e := expandEncoder{ctx: ctx, w: w, ch: ch, g: src.g}
	e.fromDay, e.toDay = from.Rata(), to.Rata()
	e.win.Lo = ch.TickAt(e.g, ch.EpochSecondsOf(from))
	e.win.Hi = ch.TickAt(e.g, ch.EpochSecondsOf(to)+chronology.SecondsPerDay-1)

	lat := lattices.Get().(*lattice)
	defer lattices.Put(lat)
	// The header is put together at the front of the head region; an append
	// past its end moves to the heap and leaves the template alone. The one
	// value of the body that needs escaping (HTML-safe, as before) is left to
	// encoding/json; a string always marshals.
	exprJSON, _ := json.Marshal(expr)
	head := append(lat.b[:0:latticeHead], "{\n  \"expr\": "...)
	head = append(head, exprJSON...)
	head = append(head, ",\n  \"granularity\": \""...)
	head = append(head, e.g.String()...)
	head = append(head, "\",\n  \"count\": "...)
	// count precedes the intervals on the wire and depends on the clipping.
	n := e.count(src)
	head = strconv.AppendInt(head, int64(n), 10)
	if n == 0 {
		return e.flush(append(head, noIntervals...), true)
	}
	head = append(head, openIntervals...)
	if from.Year < 0 || to.Year > 9999 {
		return e.appendIntervals(append(make([]byte, 0, expandFlushBytes+1<<10), head...), lat, src)
	}
	// Inside the years 0..9999 every date is ten bytes wide, so every element
	// is too, and the count fixes the body's length before a byte of it goes.
	e.size = len(head) + n*len(element) - 1 + len(closeIntervals)
	if len(head) > latticeHead {
		return e.appendIntervals(head, lat, src)
	}
	return e.latticeIntervals(lat, head, src)
}

// count returns how many leaf intervals fall in the window: a pattern's
// cardinality over it; two binary searches over a sorted disjoint slab; else
// a walk over the leaves in place (no Flatten copy), in no assumed order.
func (e *expandEncoder) count(src expandSource) int {
	switch {
	case src.cal == nil && src.pat == nil:
		return 0
	case src.cal == nil:
		return int(src.pat.Card(e.win))
	case src.cal.SortedDisjoint():
		ivs := src.cal.Intervals()
		lo := sort.Search(len(ivs), func(i int) bool { return ivs[i].Hi >= e.win.Lo })
		hi := sort.Search(len(ivs), func(i int) bool { return ivs[i].Lo > e.win.Hi })
		return max(hi-lo, 0)
	}
	n := 0
	src.cal.Leaves(func(run []calsys.Interval) bool {
		for _, iv := range run {
			if e.inWindow(iv) {
				n++
			}
		}
		return true
	})
	return n
}

// element is one interval on the wire, dateLen-byte dates (the years 0..9999)
// at elementStart and elementEnd. The first one leaves the comma out.
const element = ",\n    {\n      \"start\": \"YYYY-MM-DD\",\n      \"end\": \"YYYY-MM-DD\"\n    }"
const elementStart, elementEnd, dateLen = 24, 51, 10

// The body's text after the count: around the elements, or with none.
const openIntervals, closeIntervals, noIntervals = ",\n  \"intervals\": [", "\n  ]\n}\n", ",\n  \"intervals\": []\n}\n"

// walk hands put the leaf intervals of a non-empty source run by run (a
// pattern's formed by index into lat.run) until put reports false.
func (e *expandEncoder) walk(src expandSource, lat *lattice, put func([]calsys.Interval) bool) {
	if src.cal != nil {
		src.cal.Leaves(put)
		return
	}
	first, last, _ := src.pat.IndexRange(e.win)
	c := src.pat.Walk(first)
	for n := last - first + 1; n > 0; n -= int64(len(lat.run)) {
		if !put(c.Next(lat.run[:min(n, int64(len(lat.run)))])) {
			return
		}
	}
}

// inWindow is the clipping test in tick space.
func (e *expandEncoder) inWindow(iv interval.Interval) bool {
	return iv.Hi >= e.win.Lo && iv.Lo <= e.win.Hi
}

// latticeIntervals writes the elements after a header that fits the head
// region and ends where slot 0 begins, its '[' over that slot's comma. Each
// element is two dates put into the next slot; a full lattice is one flush,
// and the closing text goes over the slot after the last element.
func (e *expandEncoder) latticeIntervals(lat *lattice, head []byte, src expandSource) (err error) {
	from, k := latticeHead+1-len(head), 0 // the batch's first byte and its element count
	copy(lat.b[from:], head)
	defer func() { // on every way out, the template back: slot 0's comma, the start of slot k
		lat.b[latticeHead] = element[0]
		copy(lat.b[latticeHead+k*len(element):], element[:len(closeIntervals)])
	}()
	e.walk(src, lat, func(run []calsys.Interval) bool {
		for _, iv := range run {
			if !e.inWindow(iv) {
				continue
			}
			start, end := e.ch.DaySpan(e.g, iv.Lo, iv.Hi)
			start, end = max(start, e.fromDay), min(end, e.toDay)
			// Every date of the window is ten bytes wide: Put cannot refuse.
			at := latticeHead + k*len(element)
			s, t := lat.b[at+elementStart:at+elementStart+dateLen], lat.b[at+elementEnd:at+elementEnd+dateLen]
			_ = e.cur.PutInMonth(s, start) || e.cur.Put(s, start)
			_ = e.cur.PutInMonth(t, end) || e.cur.Put(t, end)
			if k++; k == latticeSlots {
				if err = e.flush(lat.b[from:], false); err != nil {
					return false
				}
				lat.b[latticeHead] = element[0]
				from, k = latticeHead, 0
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	at := latticeHead + k*len(element)
	copy(lat.b[at:], closeIntervals)
	return e.flush(lat.b[from:at+len(closeIntervals)], true)
}

// appendIntervals appends the elements to buf, the header in a buffer of the
// body's own, flushing whenever it passes expandFlushBytes: for dates not all
// ten bytes wide (years outside 0..9999), or a header too long for a lattice.
func (e *expandEncoder) appendIntervals(buf []byte, lat *lattice, src expandSource) (err error) {
	sep := 1 // the first element leaves its comma out
	e.walk(src, lat, func(run []calsys.Interval) bool {
		for _, iv := range run {
			if !e.inWindow(iv) {
				continue
			}
			start, end := e.ch.DaySpan(e.g, iv.Lo, iv.Hi)
			start, end = max(start, e.fromDay), min(end, e.toDay)
			buf = append(buf, element[sep:elementStart]...)
			buf = e.cur.Append(buf, start)
			buf = append(buf, element[elementStart+dateLen:elementEnd]...)
			buf = e.cur.Append(buf, end)
			buf = append(buf, element[elementEnd+dateLen:]...)
			sep = 0
			if len(buf) >= expandFlushBytes {
				if err = e.flush(buf, false); err != nil {
					return false
				}
				buf = buf[:0]
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	return e.flush(append(buf, closeIntervals...), true)
}

// flush hands p to the writer unless the client is gone; last marks the end
// of the body. The first flush declares the body's length when it is known,
// from the count or because the whole body is in it, and net/http then frames
// no chunks. The first flush goes out with the header, in two write(2)s once
// it is past net/http's 4 KB connection buffer; each later one is one
// write(2), where a chunk takes two and a chunked body's terminator a third.
// A body of unknown length (dates outside 0..9999 over several flushes) stays
// chunked.
func (e *expandEncoder) flush(p []byte, last bool) error {
	if err := e.ctx.Err(); err != nil {
		return err
	}
	if rw, ok := e.w.(http.ResponseWriter); !e.flushed && ok {
		if last {
			e.size = len(p)
		}
		if e.size > 0 {
			rw.Header().Set("Content-Length", strconv.Itoa(e.size))
		}
		rw.WriteHeader(http.StatusOK)
	}
	e.flushed = true
	_, err := e.w.Write(p)
	return err
}
