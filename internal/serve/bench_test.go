package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"calsys/internal/chronology"
)

// benchExpand times one warm POST /expand through the root handler: decode,
// recurrence compile, the Prepared table, a matcache hit and the streaming
// encoder are all inside; the network is not. The warm-up goes into a recorder
// and is checked; the timed requests go into a writer that keeps nothing, so
// that a 400 KB body measures the handler and not the recorder's buffer.
func benchExpand(b *testing.B, body, wantCount string, defs ...[2]string) {
	h, newReq := expandInProcess(b)
	for _, def := range defs {
		req := httptest.NewRequest("PUT", "/v1/tenants/acme/calendars/"+def[0], strings.NewReader(def[1]))
		req.Header = newReq("").Header
		rec := httptest.NewRecorder()
		if h.ServeHTTP(rec, req); rec.Code != http.StatusCreated {
			b.Fatalf("define %s: %d %.300s", def[0], rec.Code, rec.Body)
		}
	}
	do := func(w http.ResponseWriter) { h.ServeHTTP(w, newReq(body)) }
	rec := httptest.NewRecorder()
	if do(rec); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(wantCount)) {
		b.Fatalf("warm-up: %d %.300s", rec.Code, rec.Body)
	}
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if do(w); w.status != http.StatusOK || w.wrote != rec.Body.Len() {
			b.Fatalf("status %d, %d bytes; want 200, %d bytes", w.status, w.wrote, rec.Body.Len())
		}
		w.wrote = 0
	}
}

// BenchmarkHandlerExpandWarm is the third Friday of every month over a
// one-year window, the kazoo-style request serve_hot replays.
func BenchmarkHandlerExpandWarm(b *testing.B) {
	benchExpand(b, `{"recurrence":{"cycle":"monthly","ordinal":"third","wdays":["friday"]},"from":"1993-01-01","to":"1993-12-31"}`,
		`"count": 12,`)
}

// BenchmarkHandlerExpandBulk is every day of sixteen years grouped by week,
// 5844 intervals and 400 KB out: the serve_bulk shape, where formatting is the
// cost. Each interval is its two dates put into the next slot of the pooled
// element lattice, six full lattices and part of a seventh; no element text
// is copied. Allocations must not follow the interval count.
func BenchmarkHandlerExpandBulk(b *testing.B) {
	benchExpand(b, `{"expr":"DAYS:during:WEEKS","from":"1990-01-01","to":"2005-12-31"}`, `"count": 5844,`)
}

// BenchmarkHandlerExpandWide is the last business day of every month of 35
// years, ten seeded holidays a year: the serve_wide shape, 420 one-day
// intervals and 29 KB out. Consecutive dates are a month apart, so the
// encoder's month cursor leaves its month on every one and steps to the
// next: this row is the step path's.
func BenchmarkHandlerExpandWide(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	var days []string
	for y := 1990; y <= 2024; y++ {
		for n := 0; n < 10; n++ {
			days = append(days, chronology.Civil{Year: y, Month: 1 + rng.Intn(12), Day: 1 + rng.Intn(28)}.String())
		}
	}
	holidays, _ := json.Marshal(map[string]any{"days": days})
	benchExpand(b, `{"expr":"[n]/bizdays:during:MONTHS","from":"1990-01-01","to":"2024-12-31"}`, `"count": 420,`,
		[2]string{"holidays", string(holidays)},
		[2]string{"bizdays", `{"derivation":"{wd = [1,2,3,4,5]/DAYS:during:WEEKS; return (wd - holidays);}"}`})
}

// BenchmarkAppendCivil is the per-date cost inside the encoder: one civil
// date to its ten ASCII bytes.
func BenchmarkAppendCivil(b *testing.B) {
	buf := make([]byte, 0, 16)
	c := chronology.Civil{Year: 1993, Month: 11, Day: 19}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = chronology.AppendCivil(buf[:0], c)
	}
	if string(buf) != "1993-11-19" {
		b.Fatalf("AppendCivil = %q", buf)
	}
}
