package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"calsys"
	"calsys/internal/chronology"
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
	// The window. An interval is reported when it ends at or after the unit
	// holding the window's first second and starts at or before the unit
	// holding its last; its dates are clipped to the rata days [fromDay, toDay].
	hiMin, loMax   chronology.Tick
	fromDay, toDay int64

	cur     chronology.CivilCursor // the month of the last date written
	sep     bool                   // an element has been written: the next one follows a comma
	flushed bool                   // a flush has gone out, and with it the status
}

// encodeExpand writes the expansion of expr over the civil window [from, to]
// to w. Selection inside a grouping unit can reach slightly outside the
// requested window (the engine expands whole containing units), so intervals
// are clipped to the window the client asked for and those wholly outside it
// are dropped. It stops at the first failed Write, and at the first flush
// that finds ctx done. When w is a ResponseWriter the first flush commits the
// 200, with a Content-Length when the whole body is in it (see flush).
func encodeExpand(ctx context.Context, w io.Writer, ch *chronology.Chronology,
	expr string, cal *calsys.Calendar, from, to chronology.Civil) error {
	bp := expandBufs.Get().(*[]byte)
	e := expandEncoder{ctx: ctx, w: w, buf: (*bp)[:0], ch: ch, g: cal.Granularity()}
	defer func() {
		// A long expr can have grown the buffer; the pool keeps the bounded ones.
		if cap(e.buf) <= 2*expandFlushBytes {
			*bp = e.buf
			expandBufs.Put(bp)
		}
	}()
	e.fromDay, e.toDay = from.Rata(), to.Rata()
	e.hiMin = ch.TickAt(e.g, ch.EpochSecondsOf(from))
	e.loMax = ch.TickAt(e.g, ch.EpochSecondsOf(to)+chronology.SecondsPerDay-1)

	// The one value of the body that needs escaping (HTML-safe, as before) is
	// left to encoding/json; a string always marshals.
	exprJSON, _ := json.Marshal(expr)
	e.buf = append(e.buf, "{\n  \"expr\": "...)
	e.buf = append(e.buf, exprJSON...)
	e.buf = append(e.buf, ",\n  \"granularity\": \""...)
	e.buf = append(e.buf, e.g.String()...)
	e.buf = append(e.buf, "\",\n  \"count\": "...)
	// count precedes the intervals on the wire and depends on the clipping.
	n := e.count(cal)
	e.buf = strconv.AppendInt(e.buf, int64(n), 10)
	if n == 0 {
		e.buf = append(e.buf, ",\n  \"intervals\": []\n}\n"...)
		return e.flush(true)
	}
	e.buf = append(e.buf, ",\n  \"intervals\": ["...)
	if err := e.intervals(cal); err != nil {
		return err
	}
	e.buf = append(e.buf, "\n  ]\n}\n"...)
	return e.flush(true)
}

// inWindow is the clipping test in tick space.
func (e *expandEncoder) inWindow(lo, hi chronology.Tick) bool {
	return hi >= e.hiMin && lo <= e.loMax
}

// count returns how many of cal's leaf intervals fall in the window. Leaves
// are walked in place (no Flatten copy) and in no assumed order.
func (e *expandEncoder) count(cal *calsys.Calendar) int {
	n := 0
	cal.Leaves(func(run []calsys.Interval) bool {
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

// intervals appends one element per leaf interval in the window, flushing
// whenever the buffer passes expandFlushBytes. It works in rata days: an
// element is one copy of the constant text whose two dates the cursor then
// overwrites. The buffer is a local for a leaf run: no write barrier.
func (e *expandEncoder) intervals(cal *calsys.Calendar) (err error) {
	cal.Leaves(func(run []calsys.Interval) bool {
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
	})
	return err
}

// flush hands the buffered bytes to the writer unless the client is gone;
// last marks the end of the body. A body that ends in its first flush goes
// out with its length: net/http then writes header and body at once instead
// of a chunk header, the chunk and a terminator. Longer bodies stay chunked.
func (e *expandEncoder) flush(last bool) error {
	if err := e.ctx.Err(); err != nil {
		return err
	}
	if rw, ok := e.w.(http.ResponseWriter); !e.flushed && ok {
		if last {
			rw.Header().Set("Content-Length", strconv.Itoa(len(e.buf)))
		}
		rw.WriteHeader(http.StatusOK)
	}
	e.flushed = true
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}
