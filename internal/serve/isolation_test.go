package serve

import (
	"calsys/internal/core/callang/symbolic"
	"net/http"
	"testing"

	"calsys/internal/core/matcache"
)

// TestCrossTenantCacheIsolation is the tentpole's proof obligation: tenant
// A replacing a calendar must not invalidate tenant B's warm
// materialization-cache entries. Each tenant's catalog runs under a
// tenant-prefixed cache scope with its own generation counter, so A's
// catalog writes bump only A's generation — B's keys are untouched and
// B's expansions keep hitting.
func TestCrossTenantCacheIsolation(t *testing.T) {
	ts, _ := newTestServer(t)
	tokA := mkTenant(t, ts, "tenant-a")
	tokB := mkTenant(t, ts, "tenant-b")

	// Both tenants define a stored calendar under the same name — names
	// are per-namespace, and identical names must not collide in the
	// shared cache either.
	holidaysA := map[string]any{"days": []string{"1993-07-04"}}
	holidaysB := map[string]any{"days": []string{"1993-12-25", "1993-12-26"}}
	if st, body := call(t, ts, "PUT", "/v1/tenants/tenant-a/calendars/holidays", tokA, holidaysA); st != http.StatusCreated {
		t.Fatalf("A put: %d %v", st, body)
	}
	if st, body := call(t, ts, "PUT", "/v1/tenants/tenant-b/calendars/holidays", tokB, holidaysB); st != http.StatusCreated {
		t.Fatalf("B put: %d %v", st, body)
	}

	// January's days: an order-1 selection counts from the window's edge,
	// so the expression has no pattern and is evaluated and cached.
	expr := "holidays + DAYS:during:([1]/MONTHS)"
	expand := func(tok, tenant string, wantCount float64) {
		t.Helper()
		st, body := call(t, ts, "POST", "/v1/tenants/"+tenant+"/expand", tok, map[string]any{
			"expr": expr, "from": "1993-01-01", "to": "1993-12-31",
		})
		if st != http.StatusOK {
			t.Fatalf("%s expand: %d %v", tenant, st, body)
		}
		if body["count"] != wantCount {
			t.Fatalf("%s expand count = %v, want %v", tenant, body["count"], wantCount)
		}
	}

	// Same expression, different catalogs: the counts differ, proving the
	// cache never serves one tenant's materialization to the other.
	// (January has 31 days; A adds July 4, B adds Dec 25 and 26.)
	expand(tokA, "tenant-a", 32) // 31 January days + Jul 4
	expand(tokB, "tenant-b", 33) // 31 January days + Dec 25 + Dec 26

	// The same days as a pattern over each tenant's own stored points.
	expr = "holidays + DAYS:during:([1]/(MONTHS:during:YEARS))"
	expand(tokA, "tenant-a", 32)
	expand(tokB, "tenant-b", 33)
	expr = "holidays + DAYS:during:([1]/MONTHS)"

	// Warm B's entry and verify the second expansion hits the cache.
	stats0 := matcache.Shared().Stats()
	expand(tokB, "tenant-b", 33)
	stats1 := matcache.Shared().Stats()
	if got := stats1.Hits - stats0.Hits; got < 1 {
		t.Fatalf("warm B expansion: %d cache hits, want >= 1 (stats %+v -> %+v)", got, stats0, stats1)
	}

	// Tenant A replaces its calendar: only A's generation moves.
	if st, body := call(t, ts, "PUT", "/v1/tenants/tenant-a/calendars/holidays", tokA,
		map[string]any{"days": []string{"1993-07-04", "1993-07-05"}}); st != http.StatusOK {
		t.Fatalf("A replace: %d %v", st, body)
	}

	// B's warm entry is still valid: hits keep coming, no new misses for B.
	stats2 := matcache.Shared().Stats()
	expand(tokB, "tenant-b", 33)
	stats3 := matcache.Shared().Stats()
	if got := stats3.Hits - stats2.Hits; got < 1 {
		t.Fatalf("B expansion after A's replace missed the cache (stats %+v -> %+v)", stats2, stats3)
	}
	if got := stats3.Misses - stats2.Misses; got != 0 {
		t.Fatalf("B expansion after A's replace recorded %d misses, want 0", got)
	}

	// A's own view did change: its expansion reflects the replacement
	// (a fresh materialization under A's bumped generation).
	expand(tokA, "tenant-a", 33) // 31 January days + Jul 4 + Jul 5
}

// TestTenantRecreateDoesNotAliasCache drops and recreates a tenant and
// proves the new incarnation does not read the old incarnation's cache
// entries: the catalog scope carries an incarnation counter, so both
// incarnations starting at generation 1 cannot collide.
func TestTenantRecreateDoesNotAliasCache(t *testing.T) {
	ts, _ := newTestServer(t)
	tok1 := mkTenant(t, ts, "phoenix")
	if st, body := call(t, ts, "PUT", "/v1/tenants/phoenix/calendars/cal", tok1,
		map[string]any{"days": []string{"1993-03-01"}}); st != http.StatusCreated {
		t.Fatalf("put: %d %v", st, body)
	}
	// Warm the first incarnation's entry.
	st, body := call(t, ts, "POST", "/v1/tenants/phoenix/expand", tok1, map[string]any{
		"expr": "cal", "from": "1993-01-01", "to": "1993-12-31",
	})
	if st != http.StatusOK || body["count"] != float64(1) {
		t.Fatalf("expand: %d %v", st, body)
	}

	if st, _ := call(t, ts, "DELETE", "/v1/tenants/phoenix", testAdminToken, nil); st != http.StatusNoContent {
		t.Fatalf("drop: %d", st)
	}
	tok2 := mkTenant(t, ts, "phoenix")

	// The recreated tenant defines a different calendar under the same
	// name; its expansion must see the new values, not the old entry.
	if st, body := call(t, ts, "PUT", "/v1/tenants/phoenix/calendars/cal", tok2,
		map[string]any{"days": []string{"1993-06-01", "1993-06-02"}}); st != http.StatusCreated {
		t.Fatalf("re-put: %d %v", st, body)
	}
	st, body = call(t, ts, "POST", "/v1/tenants/phoenix/expand", tok2, map[string]any{
		"expr": "cal", "from": "1993-01-01", "to": "1993-12-31",
	})
	if st != http.StatusOK {
		t.Fatalf("re-expand: %d %v", st, body)
	}
	if body["count"] != float64(2) {
		t.Fatalf("recreated tenant sees stale cache: %v", body)
	}
	ivs, _ := body["intervals"].([]any)
	first, _ := ivs[0].(map[string]any)
	if first["start"] != "1993-06-01" {
		t.Fatalf("recreated tenant expansion: %v", ivs)
	}
}

// TestSharedPlanReuse proves next-instant queries over a catalog-independent
// expression share one lowering across tenants: each tenant's own Prepared
// entry reads the process-wide memo, so only the first query lowers.
func TestSharedPlanReuse(t *testing.T) {
	ts, _ := newTestServer(t)
	tenants := []string{"plan-a", "plan-b", "plan-c"}
	toks := map[string]string{}
	for _, name := range tenants {
		toks[name] = mkTenant(t, ts, name)
	}
	// The third Friday of each year, an expression no other test lowers.
	q := map[string]any{"expr": "[3]/([5]/DAYS:during:WEEKS):overlaps:YEARS", "after": "1993-01-01"}
	misses := func() int64 { return symbolic.Stats().Misses }
	before := misses()
	var first int64
	for i, name := range append(tenants, tenants[0]) {
		st, body := call(t, ts, "POST", "/v1/tenants/"+name+"/next", toks[name], q)
		if st != http.StatusOK || body["next"] != "1993-01-15" || body["shared_plan"] != true {
			t.Fatalf("%s next: %d %v", name, st, body)
		}
		if i == 0 {
			first = misses()
		}
	}
	if first == before {
		t.Fatal("the first query lowered nothing: the expression was in the memo already, so the test shows nothing")
	}
	if got := misses() - first; got != 0 {
		t.Fatalf("%d lowerings after the first tenant's, want 0 (one lowering for every tenant)", got)
	}
}
