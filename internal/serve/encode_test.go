package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"calsys"
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

// intervalJSON and expandResp are the structs POST /expand built and handed
// to encoding/json before the streaming encoder; they survive here as the
// definition of the wire format.
type intervalJSON struct {
	Start string `json:"start"`
	End   string `json:"end"`
}

type expandResp struct {
	Expr        string         `json:"expr"`
	Granularity string         `json:"granularity"`
	Count       int            `json:"count"`
	Intervals   []intervalJSON `json:"intervals"`
}

// marshalExpand is the build-then-marshal tail handleExpand had — Flatten,
// civil-space clipping, one Sprintf per date, an indenting json.Encoder —
// kept as the oracle encodeExpand must match byte for byte.
func marshalExpand(ch *chronology.Chronology, src string, cal *calsys.Calendar, from, to chronology.Civil) []byte {
	g := cal.Granularity()
	ivs := cal.Flatten().Intervals()
	resp := expandResp{Expr: src, Granularity: g.String(), Intervals: make([]intervalJSON, 0, len(ivs))}
	iso := func(c chronology.Civil) string { return fmt.Sprintf("%04d-%02d-%02d", c.Year, c.Month, c.Day) }
	for _, iv := range ivs {
		start := ch.CivilOf(ch.UnitStart(g, iv.Lo))
		end := ch.CivilOf(ch.UnitEndExcl(g, iv.Hi) - 1)
		if end.Before(from) || to.Before(start) {
			continue
		}
		if start.Before(from) {
			start = from
		}
		if to.Before(end) {
			end = to
		}
		resp.Intervals = append(resp.Intervals, intervalJSON{Start: iso(start), End: iso(end)})
	}
	resp.Count = len(resp.Intervals)
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// streamExpand runs the encoder into memory.
func streamExpand(t testing.TB, ch *chronology.Chronology, src string, cal *calsys.Calendar, from, to chronology.Civil) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := encodeExpand(context.Background(), &b, ch, src, expandSource{g: cal.Granularity(), cal: cal}, from, to); err != nil {
		t.Fatalf("encodeExpand: %v", err)
	}
	return b.Bytes()
}

// expandInProcess boots a server with the tenant "acme" and returns its root
// handler and a constructor of admin-authorised POST /expand requests, for
// the tests and benchmarks that serve into their own ResponseWriter.
func expandInProcess(tb testing.TB) (http.Handler, func(body string) *http.Request) {
	tb.Helper()
	today, _ := chronology.ParseCivil("1993-01-01")
	srv, err := New(Config{AdminToken: testAdminToken, Today: today})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := srv.Registry().Create("acme"); err != nil {
		tb.Fatal(err)
	}
	return srv.Handler(), func(body string) *http.Request {
		req := httptest.NewRequest("POST", "/v1/tenants/acme/expand", strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+testAdminToken)
		return req
	}
}

// postExpand posts one /expand over the socket and reads the body whole. A
// read that fails — a body shorter than its declared Content-Length, or cut
// off because it ran past it — fails the test.
func postExpand(t testing.TB, ts *httptest.Server, tok string, body any) (*http.Response, []byte) {
	t.Helper()
	enc, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/tenants/acme/expand", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("expand %s: reading the body: %v (Content-Length %d, %d bytes read)", enc, err, resp.ContentLength, len(raw))
	}
	return resp, raw
}

// checkFraming holds a 200 /expand response to its framing: a window inside
// the years 0..9999 declares a Content-Length equal to the bytes received; a
// window reaching outside them declares one only if the body fit one flush.
func checkFraming(t testing.TB, resp *http.Response, raw []byte, from, to chronology.Civil) {
	t.Helper()
	known := from.Year >= 0 && to.Year <= 9999
	switch {
	case resp.ContentLength == int64(len(raw)) && len(resp.TransferEncoding) == 0:
	case !known && resp.ContentLength == -1 && len(raw) >= expandFlushBytes:
	default:
		t.Fatalf("%s..%s: %d bytes came with Content-Length %d, Transfer-Encoding %v",
			from, to, len(raw), resp.ContentLength, resp.TransferEncoding)
	}
}

// TestExpandStreamMatchesMarshal drives the real handler over a real socket
// and requires every 200 body to equal what encoding/json printed for the
// same evaluation, and to arrive as long as its Content-Length says: pinned
// cases for empty results, clipping at the front, the back and both, every
// granularity, order-1 and order-2 results and hostile expr strings, then
// random expression × window pairs.
func TestExpandStreamMatchesMarshal(t *testing.T) {
	ts, srv := newTestServer(t)
	tok := mkTenant(t, ts, "acme")
	tenant, _ := srv.Registry().Get("acme")
	sys := tenant.System()
	for _, def := range []struct {
		name string
		body map[string]any
	}{
		{"holidays", map[string]any{"days": []string{"1993-01-01", "1993-07-05", "1993-12-24", "1994-07-04", "1995-12-25"}}},
		{"bizdays", map[string]any{"derivation": "{wd = [1,2,3,4,5]/DAYS:during:WEEKS; return (wd - holidays);}"}},
	} {
		if status, out := call(t, ts, "PUT", "/v1/tenants/acme/calendars/"+def.name, tok, def.body); status != http.StatusCreated {
			t.Fatalf("define %s: %d %v", def.name, status, out)
		}
	}

	// check posts one expand and compares it with the oracle; it returns the
	// evaluated calendar and the decoded response for the pinned assertions.
	check := func(t *testing.T, src, fromStr, toStr string) (*calsys.Calendar, expandResp) {
		t.Helper()
		from, err := chronology.ParseCivil(fromStr)
		if err != nil {
			t.Fatal(err)
		}
		to, err := chronology.ParseCivil(toStr)
		if err != nil {
			t.Fatal(err)
		}
		hr, got := postExpand(t, ts, tok, map[string]string{"expr": src, "from": fromStr, "to": toStr})
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("expand %q %s..%s: %d %s", src, fromStr, toStr, hr.StatusCode, got)
		}
		checkFraming(t, hr, got, from, to)
		cal, err := sys.EvalCalendar(src, from, to)
		if err != nil {
			t.Fatalf("EvalCalendar(%q): %v", src, err)
		}
		if want := marshalExpand(sys.Chron(), src, cal, from, to); !bytes.Equal(got, want) {
			t.Fatalf("expand %q %s..%s: streamed body differs from encoding/json\n got: %.300q\nwant: %.300q",
				src, fromStr, toStr, got, want)
		}
		var resp expandResp
		if err := json.Unmarshal(got, &resp); err != nil {
			t.Fatalf("expand %q: body is not JSON: %v", src, err)
		}
		return cal, resp
	}

	pinned := []struct {
		name, src, from, to string
		order, count        int    // expected; count -1 = unchecked
		first, last         string // "start..end" of the first and last interval, "" = unchecked
	}{
		{"empty-stored", "holidays", "1993-02-01", "1993-06-30", 1, 0, "", ""},
		{"empty-difference", "DAYS - DAYS", "1993-01-01", "1993-01-31", 1, 0, "", ""},
		{"clip-front", "WEEKS", "1993-01-06", "1993-01-17", 1, 2, "1993-01-06..1993-01-10", "1993-01-11..1993-01-17"},
		{"clip-back", "WEEKS", "1993-01-04", "1993-01-13", 1, 2, "1993-01-04..1993-01-10", "1993-01-11..1993-01-13"},
		{"clip-both-ends", "MONTHS", "1993-01-10", "1993-03-20", 1, 3, "1993-01-10..1993-01-31", "1993-03-01..1993-03-20"},
		{"clip-one-interval-both", "YEARS", "1993-03-01", "1993-03-31", 1, 1, "1993-03-01..1993-03-31", "1993-03-01..1993-03-31"},
		{"selection-outside-window", "[1]/DAYS:during:MONTHS", "1993-01-15", "1993-03-15", 1, 2, "1993-02-01..1993-02-01", "1993-03-01..1993-03-01"},
		{"order-2", "DAYS:during:WEEKS", "1993-01-01", "1993-01-31", 2, 31, "1993-01-01..1993-01-01", "1993-01-31..1993-01-31"},
		{"order-2-months", "WEEKS:during:MONTHS", "1993-01-01", "1993-12-31", 2, -1, "", ""},
		{"multi-flush", "DAYS:during:WEEKS", "1990-01-01", "2005-12-31", 2, 5844, "1990-01-01..1990-01-01", "2005-12-31..2005-12-31"},
		{"before-epoch", "MONTHS", "1985-11-15", "1987-02-10", 1, 16, "1985-11-15..1985-11-30", "1987-02-01..1987-02-10"},
		{"script", "bizdays", "1993-01-01", "1993-01-31", 1, 20, "1993-01-04..1993-01-04", "1993-01-29..1993-01-29"},
		{"seconds", "SECONDS", "1993-01-01", "1993-01-01", 1, 86400, "1993-01-01..1993-01-01", "1993-01-01..1993-01-01"},
		{"minutes", "MINUTES", "1993-01-01", "1993-01-02", 1, 2880, "", ""},
		{"hours", "HOURS", "1992-12-31", "1993-01-01", 1, 48, "", ""},
		{"days", "DAYS", "1993-02-27", "1993-03-02", 1, 4, "", ""},
		{"decades", "DECADES", "1985-06-01", "2001-06-01", 1, 3, "1985-06-01..1989-12-31", "2000-01-01..2001-06-01"},
		{"century", "CENTURY", "1950-01-01", "2049-12-31", 1, 2, "1950-01-01..1999-12-31", "2000-01-01..2049-12-31"},
		// Years outside 0..9999 are not ten bytes wide: both widths inside one
		// body, the cut-over inside a buffer and across flushes.
		{"five-digit-days", "DAYS", "9999-12-30", "10000-01-02", 1, 4, "9999-12-30..9999-12-30", "10000-01-02..10000-01-02"},
		{"negative-weeks", "WEEKS", "-0001-12-20", "0000-01-10", 1, 4, "-001-12-20..-001-12-26", "0000-01-10..0000-01-10"},
		{"five-digit-multi-flush", "DAYS:during:WEEKS", "9990-01-01", "10005-12-31", 2, 5844, "9990-01-01..9990-01-01", "10005-12-31..10005-12-31"},
		{"five-digit-years", "YEARS", "9998-06-01", "10001-06-01", 1, 4, "9998-06-01..9998-12-31", "10001-01-01..10001-06-01"},
		{"five-digit-century", "CENTURY", "9950-01-01", "10049-12-31", 1, 2, "9950-01-01..9999-12-31", "10000-01-01..10049-12-31"},
		{"html-escapes", "DAYS:<:([1]/WEEKS)", "1993-01-01", "1993-01-10", -1, -1, "", ""},
		{"hostile-comment", "WEEKS /* <b>&amp; \"q\" \\ \u00e9\u4e16 \u2028\u2029 \x01\x7f\t */", "1993-01-01", "1993-01-31", 1, 5, "", ""},
	}
	for _, tc := range pinned {
		t.Run(tc.name, func(t *testing.T) {
			cal, resp := check(t, tc.src, tc.from, tc.to)
			if tc.order > 0 && cal.Order() != tc.order {
				t.Errorf("order %d, want %d", cal.Order(), tc.order)
			}
			if tc.count >= 0 && (resp.Count != tc.count || len(resp.Intervals) != tc.count) {
				t.Errorf("count %d (%d intervals), want %d", resp.Count, len(resp.Intervals), tc.count)
			}
			if resp.Expr != tc.src {
				t.Errorf("expr %q, want %q", resp.Expr, tc.src)
			}
			if tc.first != "" {
				first, last := resp.Intervals[0], resp.Intervals[len(resp.Intervals)-1]
				if got := first.Start + ".." + first.End; got != tc.first {
					t.Errorf("first interval %s, want %s", got, tc.first)
				}
				if got := last.Start + ".." + last.End; got != tc.last {
					t.Errorf("last interval %s, want %s", got, tc.last)
				}
			}
		})
	}

	// A body with invalid UTF-8 in the expr: the decoder hands the handler
	// U+FFFD, and the response must carry it as encoding/json would.
	t.Run("invalid-utf8-in-request", func(t *testing.T) {
		body := []byte("{\"expr\":\"WEEKS /* \xff\xc0 */\",\"from\":\"1993-01-01\",\"to\":\"1993-01-31\"}")
		status, got := rawCall(t, ts, "POST", "/v1/tenants/acme/expand", tok, body)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, got)
		}
		from, _ := chronology.ParseCivil("1993-01-01")
		to, _ := chronology.ParseCivil("1993-01-31")
		src := "WEEKS /* \ufffd\ufffd */"
		cal, err := sys.EvalCalendar(src, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalExpand(sys.Chron(), src, cal, from, to); !bytes.Equal(got, want) {
			t.Fatalf("got %q\nwant %q", got, want)
		}
	})

	// Random expressions × windows, windows reaching before the 1987 epoch.
	exprs := []string{
		"DAYS", "WEEKS", "MONTHS", "YEARS", "DECADES", "CENTURY",
		"DAYS:during:WEEKS", "DAYS:during:MONTHS", "WEEKS:during:MONTHS", "WEEKS:overlaps:MONTHS", "MONTHS:during:YEARS",
		"[1]/DAYS:during:WEEKS", "[n]/DAYS:during:MONTHS", "[3]/([5]/DAYS:during:WEEKS):overlaps:MONTHS",
		"[1,2,3,4,5]/DAYS:during:WEEKS", "([6]/DAYS:during:WEEKS) + ([7]/DAYS:during:WEEKS)",
		"[2]/MONTHS:during:YEARS", "[1]/WEEKS:overlaps:MONTHS", "WEEKS - ([1]/WEEKS:overlaps:MONTHS)",
		"holidays", "bizdays", "[n]/bizdays:during:MONTHS", "DAYS - bizdays",
	}
	rng := rand.New(rand.NewSource(13))
	epoch := chronology.Civil{Year: 1987, Month: 1, Day: 1}
	orders := map[int]int{}
	empties := 0
	for i := 0; i < 150; i++ {
		src := exprs[rng.Intn(len(exprs))]
		from := epoch.AddDays(int64(rng.Intn(9000)) - 1500)
		span := int64(rng.Intn(40))
		if rng.Intn(3) == 0 {
			span = int64(rng.Intn(3000))
		}
		cal, resp := check(t, src, from.String(), from.AddDays(span).String())
		orders[cal.Order()]++
		if resp.Count == 0 {
			empties++
		}
	}
	if orders[1] == 0 || orders[2] == 0 {
		t.Errorf("random sweep saw result orders %v; want both order 1 and order 2", orders)
	}
	t.Logf("random sweep: orders %v, %d empty results", orders, empties)
}

// fuzzCalendar builds a calendar from fuzz bytes: order 1 with lower bounds
// non-decreasing (upper bounds in any order, overlaps allowed), or order 2
// whose leaves each restart from their own base so that the flattened list is
// not sorted.
func fuzzCalendar(g chronology.Granularity, base int32, order2 bool, data []byte) (*calsys.Calendar, error) {
	leaf := func(off int64, data []byte) (*calsys.Calendar, error) {
		ivs := make([]interval.Interval, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			off += int64(data[i] % 16)
			ivs = append(ivs, interval.Interval{
				Lo: chronology.TickFromOffset(off),
				Hi: chronology.TickFromOffset(off + int64(data[i+1]%32)),
			})
		}
		return calendar.FromIntervals(g, ivs)
	}
	if !order2 || len(data) < 4 {
		return leaf(int64(base), data)
	}
	var subs []*calsys.Calendar
	for i := 0; i < len(data); i += 8 {
		chunk := data[i:min(i+8, len(data))]
		sub, err := leaf(int64(base)+int64(int8(chunk[0])), chunk[1:])
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	return calendar.FromSubs(subs)
}

// FuzzExpandEncode holds the streaming encoder to the encoding/json oracle on
// arbitrary expr strings, granularities, windows and interval lists.
func FuzzExpandEncode(f *testing.F) {
	days := []byte{0, 0, 1, 0, 1, 4, 0, 30, 3, 1, 15, 0, 2, 2, 9, 9}
	f.Add("DAYS", int16(1987), uint8(chronology.Day), int32(2190), int32(2200), int32(40), false, days)
	f.Add("DAYS:during:WEEKS", int16(1987), uint8(chronology.Day), int32(-20), int32(-10), int32(60), true, days)
	f.Add("<script>&\"\\\x00\x1f\x7f\b\f\n\r\t", int16(1987), uint8(chronology.Week), int32(0), int32(-30), int32(400), true, days)
	f.Add("caf\u00e9 \u2028\u2029 \xff\xfe \xe2\x80 \ufffd", int16(1987), uint8(chronology.Month), int32(-5), int32(-200), int32(900), false, days)
	f.Add("", int16(1987), uint8(chronology.Second), int32(86390), int32(0), int32(2), false, days)
	f.Add("MINUTES", int16(1987), uint8(chronology.Minute), int32(-1450), int32(-1), int32(1), true, days)
	f.Add("HOURS", int16(1987), uint8(chronology.Hour), int32(20), int32(0), int32(0), false, days)
	f.Add("YEARS", int16(1987), uint8(chronology.Year), int32(-3), int32(-2000), int32(9000), true, days)
	f.Add("DECADES", int16(1987), uint8(chronology.Decade), int32(-2), int32(-9000), int32(30000), false, days)
	f.Add("CENTURY", int16(1987), uint8(chronology.Century), int32(-3), int32(-40000), int32(70000), true, days)
	// The second leaf starts 116 days before the first: leaves out of order.
	f.Add("unsorted leaves", int16(1987), uint8(chronology.Day), int32(100), int32(0), int32(200), true,
		[]byte{60, 0, 0, 3, 2, 5, 40, 0, 200, 1, 1, 1, 9, 2, 0, 1})
	f.Add("empty", int16(1987), uint8(chronology.Day), int32(5), int32(0), int32(10), false, []byte{})
	f.Add("outside", int16(1987), uint8(chronology.Day), int32(5000), int32(0), int32(10), true, days)
	// Far epochs: windows over the years whose dates are not ten bytes wide,
	// entered and left inside one body.
	f.Add("negative years", int16(-1), uint8(chronology.Day), int32(350), int32(340), int32(800), true, days)
	f.Add("year 0 by week", int16(-1), uint8(chronology.Week), int32(40), int32(300), int32(200), false, days)
	f.Add("five digits", int16(9999), uint8(chronology.Day), int32(340), int32(350), int32(60), false, days)
	f.Add("year 10000 by month", int16(9998), uint8(chronology.Month), int32(15), int32(500), int32(900), true, days)
	f.Fuzz(func(t *testing.T, expr string, epochYear int16, gran uint8, base, fromDay, spanDays int32, order2 bool, data []byte) {
		g := chronology.Granularity(gran % 9)
		if len(data) > 4096 {
			data = data[:4096]
		}
		cal, err := fuzzCalendar(g, base, order2, data)
		if err != nil {
			t.Skip(err)
		}
		epoch := chronology.Civil{Year: int(epochYear), Month: 1, Day: 1}
		ch := chronology.MustNew(epoch)
		from := epoch.AddDays(int64(fromDay % 100000))
		to := from.AddDays(int64(uint32(spanDays) % maxWindowDays))
		got, want := streamExpand(t, ch, expr, cal, from, to), marshalExpand(ch, expr, cal, from, to)
		if !bytes.Equal(got, want) {
			t.Fatalf("encodeExpand(%q, %v, %s..%s, %v) differs from encoding/json\n got: %q\nwant: %q",
				expr, g, from, to, cal, got, want)
		}
	})
}

// hangupWriter is a ResponseWriter whose client goes away after limit bytes:
// the Write that crosses the limit fails (or, with cancel set, succeeds and
// cancels the request context, the way net/http reports a closed connection).
type hangupWriter struct {
	header http.Header
	limit  int
	cancel context.CancelFunc

	wrote      int // bytes offered up to and including the Write that crossed the limit
	lateWrites int // Write calls after that one
	lateBytes  []byte
	gone       bool
}

func (w *hangupWriter) Header() http.Header { return w.header }
func (w *hangupWriter) WriteHeader(int)     {}
func (w *hangupWriter) Write(p []byte) (int, error) {
	if w.gone {
		w.lateWrites++
		w.lateBytes = append(w.lateBytes, p...)
	} else {
		w.wrote += len(p)
		if w.wrote <= w.limit {
			return len(p), nil
		}
		w.gone = true
	}
	if w.cancel != nil {
		w.cancel()
		return len(p), nil
	}
	return 0, errors.New("hangupWriter: client is gone")
}

// TestExpandStopsWhenClientIsGone proves a bulk expand whose client vanishes
// formats at most one more buffer: after the failed Write (or the cancelled
// context) the encoder makes no further Write, so everything it formatted
// past the hang-up fits in the one flush that found out.
func TestExpandStopsWhenClientIsGone(t *testing.T) {
	h, newReq := expandInProcess(t)
	// ≈ 5.8 k intervals, ≈ 400 KB: six flushes when the client stays.
	serve := func(w *hangupWriter, ctx context.Context) {
		h.ServeHTTP(w, newReq(`{"expr":"DAYS:during:WEEKS","from":"1990-01-01","to":"2005-12-31"}`).WithContext(ctx))
	}
	full := &hangupWriter{header: http.Header{}, limit: 1 << 30}
	serve(full, context.Background())
	if full.wrote < 5*expandFlushBytes {
		t.Fatalf("bulk response is %d bytes; the test needs several flushes", full.wrote)
	}
	const perInterval = 60 // bytes: a lower bound on one formatted element

	for _, limit := range []int{0, 10, expandFlushBytes + 10, 3 * expandFlushBytes} {
		t.Run(fmt.Sprintf("write-fails-after-%d", limit), func(t *testing.T) {
			w := &hangupWriter{header: http.Header{}, limit: limit}
			serve(w, context.Background())
			if !w.gone {
				t.Fatal("the writer never hung up")
			}
			if w.lateWrites != 0 {
				t.Errorf("%d Write calls (%d bytes) after the failed one", w.lateWrites, len(w.lateBytes))
			}
			// Formatted after the hang-up: the rest of the failed flush, no more.
			if after := (w.wrote - limit) / perInterval; after > (expandFlushBytes+1024)/perInterval {
				t.Errorf("about %d intervals formatted past the hang-up; one flush holds %d", after, expandFlushBytes/perInterval)
			}
			if w.wrote >= full.wrote {
				t.Errorf("all %d bytes were formatted for a client that left at %d", w.wrote, limit)
			}
		})
		t.Run(fmt.Sprintf("context-cancelled-after-%d", limit), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w := &hangupWriter{header: http.Header{}, limit: limit, cancel: cancel}
			serve(w, ctx)
			if !w.gone {
				t.Fatal("the writer never hung up")
			}
			if w.lateWrites != 0 {
				t.Errorf("%d Write calls (%d bytes, %d intervals) after the context was cancelled",
					w.lateWrites, len(w.lateBytes), bytes.Count(w.lateBytes, []byte(`"start"`)))
			}
		})
	}
}

// discardWriter is a ResponseWriter that keeps the status and the byte count
// and nothing else, so that the allocations and the time measured are the
// handler's and not a recorder's buffer.
type discardWriter struct {
	header http.Header
	status int
	wrote  int
}

func (w *discardWriter) Header() http.Header    { return w.header }
func (w *discardWriter) WriteHeader(status int) { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.wrote += len(p)
	return len(p), nil
}

// TestExpandAllocsIndependentOfIntervalCount is the O(1)-allocation target: a
// warm expand of 1.4 k intervals and one of 5.8 k allocate the same.
func TestExpandAllocsIndependentOfIntervalCount(t *testing.T) {
	h, newReq := expandInProcess(t)
	allocs := func(to string) float64 {
		body := `{"expr":"DAYS:during:WEEKS","from":"1990-01-01","to":"` + to + `"}`
		w := &discardWriter{header: http.Header{}}
		return testing.AllocsPerRun(20, func() { h.ServeHTTP(w, newReq(body)) })
	}
	small, large := allocs("1993-12-31"), allocs("2005-12-31")
	t.Logf("allocs/op: %.0f at 4 years, %.0f at 16 years", small, large)
	// sync.Pool may drop the buffer between runs (it does so on purpose under
	// the race detector): allow the two refills, not a per-interval term.
	if large > small+2 {
		t.Errorf("allocs grow with the interval count: %.0f at 4 years, %.0f at 16 years", small, large)
	}
	if large > 60 {
		t.Errorf("a warm bulk expand allocates %.0f times, want at most 60", large)
	}
}

// Over a socket, a body whose window lies in the years 0..9999 declares its
// length on the first flush, whether it is walked from a pattern or read from
// a slab and however many flushes it takes; a body that reaches past
// 9999-12-31 over several flushes is streamed chunked. The bytes are the
// oracle's either way (TestExpandStreamMatchesMarshal).
func TestExpandContentLength(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")
	patternExpands := func() float64 {
		t.Helper()
		_, body := call(t, ts, "GET", "/debug/cachestats", testAdminToken, nil)
		prep, _ := body["prepared"].(map[string]any)
		return prep["pattern_expands"].(float64)
	}
	for _, tc := range []struct {
		name, expr, from, to string
		pattern              bool
		flushes              int // 0: an empty result; 2: two or more
		chunked              bool
	}{
		{"pattern-empty", "[1]/DAYS:during:MONTHS", "1993-01-02", "1993-01-31", true, 0, false},
		{"pattern-one-flush", "DAYS:during:WEEKS", "1990-01-01", "1991-02-24", true, 1, false}, // serve_wide's median size
		{"pattern-flushes", "DAYS:during:WEEKS", "1990-01-01", "1995-12-31", true, 2, false},
		{"slab-empty", "[40]/DAYS:during:caloperate(MONTHS, 1)", "1993-01-01", "1993-12-31", false, 0, false},
		{"slab-one-flush", "DAYS:during:caloperate(WEEKS, 1)", "1990-01-01", "1991-02-24", false, 1, false},
		{"slab-flushes", "DAYS:during:caloperate(WEEKS, 1)", "1990-01-01", "1995-12-31", false, 2, false},
		{"past-9999-one-flush", "DAYS", "9999-12-30", "10000-01-02", true, 1, false},
		{"past-9999-flushes", "DAYS:during:WEEKS", "9998-01-01", "10001-12-31", true, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := patternExpands()
			resp, raw := postExpand(t, ts, tok, map[string]string{"expr": tc.expr, "from": tc.from, "to": tc.to})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%d %s", resp.StatusCode, raw)
			}
			if answered := patternExpands() != before; answered != tc.pattern {
				t.Fatalf("answered from a pattern: %v, want %v", answered, tc.pattern)
			}
			var body expandResp
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatal(err)
			}
			flushes := min(len(raw)/expandFlushBytes+1, 2)
			if body.Count == 0 {
				flushes = 0
			}
			if flushes != tc.flushes {
				t.Fatalf("%d intervals, %d bytes; the case needs %d flushes", body.Count, len(raw), tc.flushes)
			}
			if tc.chunked {
				if resp.ContentLength != -1 || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
					t.Errorf("%d bytes: Content-Length %d, Transfer-Encoding %v; want chunked",
						len(raw), resp.ContentLength, resp.TransferEncoding)
				}
			} else if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
				t.Errorf("%d bytes: Content-Length %d, Transfer-Encoding %v", len(raw), resp.ContentLength, resp.TransferEncoding)
			}
		})
	}
}

// countingListener counts the Write calls made on the connections it accepts:
// what reaches the kernel as write(2), since net/http buffers above them.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return &countingConn{Conn: c, writes: &l.writes}, err
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestExpandWritesPerFlush pins what a declared length buys: a body of k
// flushes reaches the connection in at most k + 1 writes — the header with
// the first flush's head, then one write a flush — where a chunked body
// takes two a flush (chunk header with a buffer's worth, then the rest) and
// a terminator, 2k + 1.
func TestExpandWritesPerFlush(t *testing.T) {
	h, _ := expandInProcess(t)
	ts := httptest.NewUnstartedServer(h)
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	defer ts.Close()
	for _, to := range []string{"1991-02-24", "1992-12-31", "1995-12-31", "2005-12-31"} {
		before := ln.writes.Load()
		resp, raw := postExpand(t, ts, testAdminToken,
			map[string]string{"expr": "DAYS:during:WEEKS", "from": "1990-01-01", "to": to})
		writes := ln.writes.Load() - before
		// A flush is at least expandFlushBytes but the last: at most k of them.
		k := int64(len(raw)/expandFlushBytes + 1)
		t.Logf("to %s: %d bytes, at most %d flushes, %d writes", to, len(raw), k, writes)
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(raw)) {
			t.Fatalf("to %s: %d, Content-Length %d for %d bytes", to, resp.StatusCode, resp.ContentLength, len(raw))
		}
		if writes > k+1 {
			t.Errorf("to %s: %d bytes in at most %d flushes took %d writes, want at most %d", to, len(raw), k, writes, k+1)
		}
	}
}

// flushWriter is a ResponseWriter that keeps the length of each Write: the
// encoder's flushes.
type flushWriter struct {
	discardWriter
	sizes []int
}

func (w *flushWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

// latticeWindow is one /expand request of the lattice tests with the body
// encoding/json prints for it.
type latticeWindow struct {
	name, expr, from, to string
	body                 string // the request
	want                 []byte
}

// latticeWindows returns requests that take each of the encoder's ways: a
// pattern over seven flushes, a slab over three, an empty result, a header
// longer than the lattice's head region, and dates past 9999 streamed
// chunked.
func latticeWindows(t testing.TB) []latticeWindow {
	t.Helper()
	sys := calsys.MustOpen()
	ws := []latticeWindow{
		{name: "pattern-bulk", expr: "DAYS:during:WEEKS", from: "1990-01-01", to: "2005-12-31"},
		{name: "slab-flushes", expr: "DAYS:during:caloperate(WEEKS, 1)", from: "1990-01-01", to: "1995-12-31"},
		{name: "one-flush", expr: "[1,3,5]/DAYS:during:WEEKS", from: "1993-02-11", to: "1994-05-30"},
		{name: "empty", expr: "[1]/DAYS:during:MONTHS", from: "1993-01-02", to: "1993-01-31"},
		{name: "long-header", expr: "DAYS:during:WEEKS /* " + strings.Repeat("<&>", latticeHead/3) + " */", from: "1990-01-01", to: "1992-06-30"},
		{name: "past-9999", expr: "DAYS:during:WEEKS", from: "9998-01-01", to: "10001-12-31"},
	}
	for i := range ws {
		w := &ws[i]
		from, _ := chronology.ParseCivil(w.from)
		to, _ := chronology.ParseCivil(w.to)
		cal, err := sys.EvalCalendar(w.expr, from, to)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		w.want = marshalExpand(sys.Chron(), w.expr, cal, from, to)
		body, _ := json.Marshal(map[string]string{"expr": w.expr, "from": w.from, "to": w.to})
		w.body = string(body)
	}
	return ws
}

// checkLatticeWindows serves every window in full and holds each body to
// encoding/json's: a lattice that went back to the pool with a template byte
// out of place shows up in the first body that sends that slot.
func checkLatticeWindows(t testing.TB, h http.Handler, newReq func(string) *http.Request, ws []latticeWindow, after string) {
	for _, w := range ws {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, newReq(w.body))
		if got := rec.Body.Bytes(); rec.Code != http.StatusOK || !bytes.Equal(got, w.want) {
			at := 0
			for at < min(len(got), len(w.want)) && got[at] == w.want[at] {
				at++
			}
			t.Errorf("after %s, %s: %d, the body differs from encoding/json at byte %d of %d\n got: %.120q\nwant: %.120q",
				after, w.name, rec.Code, at, len(w.want), got[at:], w.want[at:])
		}
	}
}

// TestExpandLatticeRestored ends a body early in every way it can — a Write
// that fails at each of its flushes, a context cancelled at each (at the last
// one the body ends normally), an empty result, a header longer than the
// head region — and then requires the next expand of every shape served from
// the same pool to be byte-identical to encoding/json's: each way out puts
// the lattice's template bytes back before it returns to the pool.
func TestExpandLatticeRestored(t *testing.T) {
	h, newReq := expandInProcess(t)
	ws := latticeWindows(t)
	checkLatticeWindows(t, h, newReq, ws, "nothing")
	for _, w := range ws {
		full := &flushWriter{discardWriter: discardWriter{header: http.Header{}}}
		h.ServeHTTP(full, newReq(w.body))
		if full.status != http.StatusOK {
			t.Fatalf("%s: status %d", w.name, full.status)
		}
		before := 0 // the bytes of the flushes before flush i
		for i, size := range full.sizes {
			for _, cancels := range []bool{false, true} {
				ctx, cancel := context.WithCancel(context.Background())
				hw := &hangupWriter{header: http.Header{}, limit: before}
				if cancels {
					hw.cancel = cancel
				}
				h.ServeHTTP(hw, newReq(w.body).WithContext(ctx))
				cancel()
				if !hw.gone {
					t.Fatalf("%s: the writer never hung up at flush %d", w.name, i)
				}
				checkLatticeWindows(t, h, newReq, ws, fmt.Sprintf("%s hung up at flush %d (cancel %v)", w.name, i, cancels))
			}
			before += size
		}
	}
}

// TestExpandLatticeConcurrent serves mixed windows from eight goroutines at
// once through one pool, a third of them to clients that hang up at a random
// byte (by a failed Write or a cancelled context), and holds every body read
// whole to encoding/json's.
func TestExpandLatticeConcurrent(t *testing.T) {
	h, newReq := expandInProcess(t)
	ws := latticeWindows(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 24; i++ {
				w := ws[rng.Intn(len(ws))]
				if rng.Intn(3) == 0 {
					ctx, cancel := context.WithCancel(context.Background())
					hw := &hangupWriter{header: http.Header{}, limit: rng.Intn(len(w.want))}
					if rng.Intn(2) == 0 {
						hw.cancel = cancel
					}
					h.ServeHTTP(hw, newReq(w.body).WithContext(ctx))
					cancel()
					continue
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, newReq(w.body))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), w.want) {
					t.Errorf("goroutine %d, request %d, %s: %d, the body differs from encoding/json", seed, i, w.name, rec.Code)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
