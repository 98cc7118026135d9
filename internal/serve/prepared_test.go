package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/callang"
	calvet "calsys/internal/core/callang/vet"
	"calsys/internal/core/plan"
)

// rawCall issues one JSON request and returns the status and body bytes. A
// []byte body is sent as it is, so that malformed JSON can be sent too.
func rawCall(t testing.TB, ts *httptest.Server, method, path, token string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		enc, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// rendered returns the status and bytes a handler writes through fn.
func rendered(fn func(w http.ResponseWriter)) (int, []byte) {
	rec := httptest.NewRecorder()
	fn(rec)
	return rec.Code, rec.Body.Bytes()
}

// renderedBadRequest is the handlers' 400 for an evaluation error.
func renderedBadRequest(err error) (int, []byte) {
	return rendered(func(w http.ResponseWriter) {
		writeError(w, http.StatusBadRequest, ErrorBody{Code: ErrBadRequest, Message: err.Error()})
	})
}

// uncachedExpand is what POST /expand must answer on the tenant's current
// catalog, derived without the Prepared table or the materialization cache:
// calvet.ParseAndAnalyze, then plan.Evaluate, then the marshalExpand oracle.
func uncachedExpand(t *Tenant, src string, from, to chronology.Civil) (int, []byte) {
	mgr, ch := t.Manager(), t.System().Chron()
	if diags := calvet.ParseAndAnalyze(src, mgr, calvet.Options{Chron: ch}); diags.HasErrors() {
		return rendered(func(w http.ResponseWriter) { writeVetError(w, "expression", diags) })
	}
	e, err := callang.ParseExpr(src)
	if err != nil {
		return renderedBadRequest(err)
	}
	cal, err := plan.Evaluate(&plan.Env{Chron: ch, Cat: mgr, DisableSharing: true}, e, from, to)
	if err != nil {
		return renderedBadRequest(err)
	}
	return http.StatusOK, marshalExpand(ch, src, cal, from, to)
}

// uncachedNext is the same for POST /next with an explicit `after`.
func uncachedNext(t *Tenant, src string, after chronology.Civil) (int, []byte) {
	mgr, sys := t.Manager(), t.System()
	if diags := calvet.ParseAndAnalyze(src, mgr, calvet.Options{Chron: sys.Chron()}); diags.HasErrors() {
		return rendered(func(w http.ResponseWriter) { writeVetError(w, "expression", diags) })
	}
	e, err := callang.ParseExpr(src)
	if err != nil {
		return renderedBadRequest(err)
	}
	env := mgr.Env()
	env.Now = sys.Clock().Now
	prepped, gran, err := plan.Prepare(env, e, nil)
	if err != nil {
		return renderedBadRequest(err)
	}
	at, ok, err := plan.NextInstant(env, prepped, gran, sys.SecondsOf(after), 0)
	if err != nil {
		return renderedBadRequest(err)
	}
	resp := nextResp{Expr: src, After: after.String(), SharedPlan: Shareable(e)}
	if ok {
		resp.Next, resp.EpochSeconds = sys.Chron().CivilOf(at).String(), at
	} else {
		resp.Dormant = true
	}
	return rendered(func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, resp) })
}

// churnOps mutates one tenant's catalog through the API: stored holidays
// defined, replaced and deleted, and two derived calendars over them defined
// and deleted. Failed writes (deleting what is absent, defining over a
// dangling reference) are part of the mix.
type churnOps struct {
	t    *testing.T
	ts   *httptest.Server
	tok  string
	base string
	rng  *rand.Rand
}

var churnDerived = map[string]string{
	"biz":      "([1,2,3,4,5]/DAYS:during:WEEKS) - hols",
	"firstbiz": "[1]/biz:during:MONTHS",
}

func (c *churnOps) mutate() {
	switch op := c.rng.Intn(8); {
	case op < 3:
		days := make([]string, 3)
		for i := range days {
			days[i] = fmt.Sprintf("1993-01-%02d", 4+c.rng.Intn(25))
		}
		rawCall(c.t, c.ts, "PUT", c.base+"/calendars/hols", c.tok, map[string]any{"days": days})
	case op == 3:
		rawCall(c.t, c.ts, "DELETE", c.base+"/calendars/hols", c.tok, nil)
	default:
		name := "biz"
		if c.rng.Intn(2) == 0 {
			name = "firstbiz"
		}
		if c.rng.Intn(2) == 0 {
			rawCall(c.t, c.ts, "DELETE", c.base+"/calendars/"+name, c.tok, nil)
		} else {
			rawCall(c.t, c.ts, "PUT", c.base+"/calendars/"+name, c.tok, map[string]any{"derivation": churnDerived[name]})
		}
	}
}

var churnQueries = []string{
	"hols", "biz", "firstbiz", "[n]/biz:during:MONTHS",
	"[3]/([5]/DAYS:during:WEEKS):overlaps:MONTHS", "DAYS - hols",
	"x = DAYS; return (x);", "[0]/biz:during:WEEKS",
}

// checkQueries sends every query as an expand and as a next and compares
// status and bytes with the uncached answers on the same catalog state.
func (c *churnOps) checkQueries(tenant *Tenant) {
	c.t.Helper()
	from, _ := chronology.ParseCivil("1993-01-01")
	to, _ := chronology.ParseCivil("1993-03-31")
	for _, src := range churnQueries {
		status, body := rawCall(c.t, c.ts, "POST", c.base+"/expand", c.tok,
			map[string]any{"expr": src, "from": from.String(), "to": to.String()})
		if ws, wb := uncachedExpand(tenant, src, from, to); status != ws || !bytes.Equal(body, wb) {
			c.t.Fatalf("expand %q: %d %s\nuncached: %d %s", src, status, body, ws, wb)
		}
		status, body = rawCall(c.t, c.ts, "POST", c.base+"/next", c.tok,
			map[string]any{"expr": src, "after": from.String()})
		if ws, wb := uncachedNext(tenant, src, from); status != ws || !bytes.Equal(body, wb) {
			c.t.Fatalf("next %q: %d %s\nuncached: %d %s", src, status, body, ws, wb)
		}
	}
}

// TestServedAnswersMatchUncachedUnderChurn interleaves random calendar
// PUT/DELETE/replace with expand and next on dependants: every response must
// equal, status and bytes, the one derived from scratch on the same catalog.
func TestServedAnswersMatchUncachedUnderChurn(t *testing.T) {
	ts, srv := newTestServer(t)
	for seed := int64(1); seed <= 3; seed++ {
		name := fmt.Sprintf("churn%d", seed)
		c := &churnOps{t: t, ts: ts, tok: mkTenant(t, ts, name), base: "/v1/tenants/" + name, rng: rand.New(rand.NewSource(seed))}
		tenant, _ := srv.Registry().Get(name)
		for step := 0; step < 40; step++ {
			c.mutate()
			c.checkQueries(tenant)
			c.checkQueries(tenant) // again, now from the table
		}
		if st := tenant.Manager().PreparedStats(); st.Hits == 0 || st.Resets == 0 {
			t.Fatalf("seed %d: the run did not exercise the table: %+v", seed, st)
		}
	}
}

// The same mix with readers and writers in parallel (the race job runs it
// under -race). Answers taken while the catalog moves are not compared; once
// the writers stop, every answer must be the uncached one again.
func TestServedAnswersSettleAfterConcurrentChurn(t *testing.T) {
	ts, srv := newTestServer(t)
	tok := mkTenant(t, ts, "busy")
	tenant, _ := srv.Registry().Get("busy")
	base := "/v1/tenants/busy"
	for round := 0; round < 4; round++ {
		var writers, readers sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 3; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					src := churnQueries[(i+r)%len(churnQueries)]
					rawCall(t, ts, "POST", base+"/expand", tok, map[string]any{"expr": src, "from": "1993-01-01", "to": "1993-03-31"})
					rawCall(t, ts, "POST", base+"/next", tok, map[string]any{"expr": src})
				}
			}(r)
		}
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				c := &churnOps{t: t, ts: ts, tok: tok, base: base, rng: rand.New(rand.NewSource(int64(round*2 + w)))}
				for i := 0; i < 25; i++ {
					c.mutate()
				}
			}(w)
		}
		writers.Wait()
		close(stop)
		readers.Wait()
		(&churnOps{t: t, ts: ts, tok: tok, base: base}).checkQueries(tenant)
	}
}

// The pinned transitions through the API: a verdict follows the definition
// it depends on in both directions with its CV001 position intact, and a
// replaced stored calendar changes the expansion.
func TestVerdictFollowsDefinitionThroughAPI(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")
	base := "/v1/tenants/acme"
	expand := map[string]any{"expr": "DAYS:during:WEEKS - closed", "from": "1993-01-04", "to": "1993-01-10"}
	undefined := func(when string) {
		t.Helper()
		status, body := call(t, ts, "POST", base+"/expand", tok, expand)
		e, _ := body["error"].(map[string]any)
		diags, _ := e["diagnostics"].([]any)
		if status != http.StatusBadRequest || e["code"] != ErrVetFailed || e["position"] != "1:21" || len(diags) != 1 {
			t.Fatalf("%s: %d %v", when, status, body)
		}
		if d, _ := diags[0].(map[string]any); d["code"] != "CV001" || d["position"] != "1:21" {
			t.Fatalf("%s: diagnostic %v", when, d)
		}
	}
	count := func(when string, want float64) {
		t.Helper()
		if status, body := call(t, ts, "POST", base+"/expand", tok, expand); status != http.StatusOK || body["count"] != want {
			t.Fatalf("%s: %d %v", when, status, body)
		}
	}
	put := func(days ...string) {
		t.Helper()
		if status, body := call(t, ts, "PUT", base+"/calendars/closed", tok, map[string]any{"days": days}); status/100 != 2 {
			t.Fatalf("put closed: %d %v", status, body)
		}
	}
	undefined("before the definition")
	undefined("repeated")
	put("1993-01-06")
	count("after the definition", 6) // the week minus Wednesday
	count("repeated", 6)
	put("1993-01-04", "1993-01-05")
	count("after the replace", 5)
	if status, _ := call(t, ts, "DELETE", base+"/calendars/closed", tok, nil); status != http.StatusNoContent {
		t.Fatalf("delete closed: %d", status)
	}
	undefined("after the drop")
}

// Conflicts are recognised by sentinel errors, and a calendar PUT that loses
// the lookup-then-define race is a 409 like one that saw the name taken.
func TestDefinitionConflicts(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")
	base := "/v1/tenants/acme"

	const n = 8
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = rawCall(t, ts, "PUT", base+"/calendars/tuesdays", tok,
				map[string]any{"derivation": "[2]/DAYS:during:WEEKS"})
		}(i)
	}
	wg.Wait()
	created := 0
	for _, st := range statuses {
		switch st {
		case http.StatusCreated:
			created++
		case http.StatusConflict:
		default:
			t.Fatalf("racing PUTs answered %v, want one 201 and 409s", statuses)
		}
	}
	if created != 1 {
		t.Fatalf("racing PUTs answered %v, want exactly one 201", statuses)
	}

	rule := map[string]any{"expr": "tuesdays"}
	if status, body := call(t, ts, "PUT", base+"/rules/weekly", tok, rule); status != http.StatusCreated {
		t.Fatalf("rule: %d %v", status, body)
	}
	status, body := call(t, ts, "PUT", base+"/rules/weekly", tok, rule)
	e, _ := body["error"].(map[string]any)
	if status != http.StatusConflict || e["code"] != ErrConflict || e["message"] != `rules: rule "acme/weekly" already defined` {
		t.Fatalf("duplicate rule: %d %v", status, body)
	}
	status, body = call(t, ts, "POST", "/v1/tenants", testAdminToken, map[string]any{"name": "Acme"})
	e, _ = body["error"].(map[string]any)
	if status != http.StatusConflict || e["message"] != `tenant "Acme" already exists` {
		t.Fatalf("duplicate tenant: %d %v", status, body)
	}
}

// /v1/stats reports the prepared-expression table beside the plan share;
// dashboards key on these field names.
func TestStatsPreparedBlock(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")
	q := map[string]any{"expr": "[2]/DAYS:during:WEEKS", "from": "1993-01-01", "to": "1993-01-31"}
	for i := 0; i < 3; i++ {
		if status, body := call(t, ts, "POST", "/v1/tenants/acme/expand", tok, q); status != http.StatusOK {
			t.Fatalf("expand: %d %v", status, body)
		}
	}
	_, raw := rawCall(t, ts, "GET", "/v1/stats", testAdminToken, nil)
	var stats struct {
		Prepared    map[string]float64 `json:"prepared"`
		SharedPlans map[string]float64 `json:"shared_plans"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"entries", "hits", "misses", "resets"} {
		if _, ok := stats.Prepared[k]; !ok || len(stats.Prepared) != 4 {
			t.Fatalf("prepared block %v lacks %q or has extra fields", stats.Prepared, k)
		}
	}
	for _, k := range []string{"plans", "hits", "misses"} {
		if _, ok := stats.SharedPlans[k]; !ok || len(stats.SharedPlans) != 3 {
			t.Fatalf("shared_plans block %v lacks %q or has extra fields", stats.SharedPlans, k)
		}
	}
	// Three identical requests: one parse, then table hits (a request reads
	// its entry once to vet and once to evaluate).
	if p := stats.Prepared; p["entries"] != 1 || p["misses"] != 1 || p["hits"] != 5 {
		t.Fatalf("prepared counters %v, want 1 entry, 1 miss, 5 hits", p)
	}
}
