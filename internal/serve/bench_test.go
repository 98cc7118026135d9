package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"calsys/internal/chronology"
)

// BenchmarkHandlerExpandWarm is one warm POST /expand through the root
// handler into a recorder: the third Friday of every month over a one-year
// window, the kazoo-style request serve_hot replays. Decode, recurrence
// compile, the Prepared table, a matcache hit, formatting and encoding are
// all inside; the network is not.
func BenchmarkHandlerExpandWarm(b *testing.B) {
	today, _ := chronology.ParseCivil("1993-01-01")
	srv, err := New(Config{AdminToken: testAdminToken, Today: today})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Registry().Create("acme"); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	body := []byte(`{"recurrence":{"cycle":"monthly","ordinal":"third","wdays":["friday"]},"from":"1993-01-01","to":"1993-12-31"}`)
	do := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/tenants/acme/expand", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+testAdminToken)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := do(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"count": 12`)) {
		b.Fatalf("warm-up: %d %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := do(); rec.Code != http.StatusOK {
			b.Fatalf("%d %s", rec.Code, rec.Body)
		}
	}
}
