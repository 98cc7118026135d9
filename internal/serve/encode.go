package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
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

// expandBufs recycles the encoders' buffers, sized so that the element that
// crosses the flush mark still fits.
var expandBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, expandFlushBytes+1<<10)
	return &b
}}

// expandEncoder streams the success body of POST /expand: the indented JSON
// object {expr, granularity, count, intervals: [{start, end}, …]} that
// encoding/json printed for it before, byte for byte, appended into one
// pooled buffer straight from the result's ticks.
type expandEncoder struct {
	ctx context.Context
	w   io.Writer
	buf []byte

	ch *chronology.Chronology
	g  chronology.Granularity
	// The window. An interval is reported when it overlaps win, the units
	// holding the window's first and last seconds; its dates are clipped to
	// the rata days [fromDay, toDay].
	win            interval.Interval
	fromDay, toDay int64

	cur     chronology.CivilCursor // the month of the last date written
	sep     bool                   // an element has been written: the next one follows a comma
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
	bp := expandBufs.Get().(*[]byte)
	e := expandEncoder{ctx: ctx, w: w, buf: (*bp)[:0], ch: ch, g: src.g}
	defer func() {
		// A long expr can have grown the buffer; the pool keeps the bounded ones.
		if cap(e.buf) <= 2*expandFlushBytes {
			*bp = e.buf
			expandBufs.Put(bp)
		}
	}()
	e.fromDay, e.toDay = from.Rata(), to.Rata()
	e.win.Lo = ch.TickAt(e.g, ch.EpochSecondsOf(from))
	e.win.Hi = ch.TickAt(e.g, ch.EpochSecondsOf(to)+chronology.SecondsPerDay-1)

	// The one value of the body that needs escaping (HTML-safe, as before) is
	// left to encoding/json; a string always marshals.
	exprJSON, _ := json.Marshal(expr)
	e.buf = append(e.buf, "{\n  \"expr\": "...)
	e.buf = append(e.buf, exprJSON...)
	e.buf = append(e.buf, ",\n  \"granularity\": \""...)
	e.buf = append(e.buf, e.g.String()...)
	e.buf = append(e.buf, "\",\n  \"count\": "...)
	// count precedes the intervals on the wire and depends on the clipping.
	n := e.count(src)
	e.buf = strconv.AppendInt(e.buf, int64(n), 10)
	if n == 0 {
		e.buf = append(e.buf, noIntervals...)
		return e.flush(true)
	}
	// Inside the years 0..9999 every date is ten bytes wide, so every element
	// is too, and the count fixes the body's length before a byte of it goes.
	if from.Year >= 0 && to.Year <= 9999 {
		e.size = len(e.buf) + len(openIntervals) + n*len(element) - 1 + len(closeIntervals)
	}
	e.buf = append(e.buf, openIntervals...)
	if err := e.intervals(src); err != nil {
		return err
	}
	e.buf = append(e.buf, closeIntervals...)
	return e.flush(true)
}

// inWindow is the clipping test in tick space.
func (e *expandEncoder) inWindow(lo, hi chronology.Tick) bool {
	return hi >= e.win.Lo && lo <= e.win.Hi
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
			if e.inWindow(iv.Lo, iv.Hi) {
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

// intervals appends one element per leaf interval in the window (a pattern's
// formed by index into a fixed run), flushing whenever the buffer passes
// expandFlushBytes. It works in rata days: an element is one copy of the
// constant text whose two dates the cursor then overwrites. The buffer is a
// local for a leaf run: no write barrier.
func (e *expandEncoder) intervals(src expandSource) (err error) {
	put := func(run []calsys.Interval) bool {
		buf := e.buf
		for _, iv := range run {
			if !e.inWindow(iv.Lo, iv.Hi) {
				continue
			}
			start, end := e.ch.DaySpan(e.g, iv.Lo, iv.Hi)
			start, end = max(start, e.fromDay), min(end, e.toDay)
			text := element
			if !e.sep {
				e.sep, text = true, element[1:]
			}
			buf = append(buf, text...)
			at := len(buf) - len(element)
			if !e.cur.Put(buf[at+elementStart:], start) || !e.cur.Put(buf[at+elementEnd:], end) {
				// A wider date: the element is put together piece by piece.
				buf = e.cur.Append(buf[:at+elementStart], start)
				buf = append(buf, element[elementStart+dateLen:elementEnd]...)
				buf = e.cur.Append(buf, end)
				buf = append(buf, element[elementEnd+dateLen:]...)
			}
			if len(buf) >= expandFlushBytes {
				e.buf = buf
				if err = e.flush(false); err != nil {
					return false
				}
				buf = e.buf
			}
		}
		e.buf = buf
		return true
	}
	if src.cal != nil {
		src.cal.Leaves(put)
		return err
	}
	var run [128]interval.Interval
	first, last, _ := src.pat.IndexRange(e.win)
	c := src.pat.Walk(first)
	for n := last - first + 1; n > 0 && err == nil; n -= int64(len(run)) {
		put(c.Next(run[:min(n, int64(len(run)))]))
	}
	return err
}

// flush hands the buffered bytes to the writer unless the client is gone;
// last marks the end of the body. The first flush declares the body's length
// when it is known, from the count or because the whole body is in it, and
// net/http then frames no chunks. The first flush goes out with the header,
// in two write(2)s once it is past net/http's 4 KB connection buffer; each
// later one is one write(2), where a chunk takes two and a chunked body's
// terminator a third. A body of unknown length (dates outside 0..9999 over
// several flushes) stays chunked.
func (e *expandEncoder) flush(last bool) error {
	if err := e.ctx.Err(); err != nil {
		return err
	}
	if rw, ok := e.w.(http.ResponseWriter); !e.flushed && ok {
		if last {
			e.size = len(e.buf)
		}
		if e.size > 0 {
			rw.Header().Set("Content-Length", strconv.Itoa(e.size))
		}
		rw.WriteHeader(http.StatusOK)
	}
	e.flushed = true
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}
