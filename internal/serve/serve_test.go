package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"calsys"
	"calsys/internal/caldb"
	"calsys/internal/chronology"
)

const testAdminToken = "test-admin-token"

// newTestServer boots a server anchored at 1993-01-01 behind httptest.
func newTestServer(t testing.TB) (*httptest.Server, *Server) {
	t.Helper()
	today, _ := chronology.ParseCivil("1993-01-01")
	srv, err := New(Config{AdminToken: testAdminToken, Today: today})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// call issues one JSON request and decodes the response body.
func call(t testing.TB, ts *httptest.Server, method, path, token string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := map[string]any{}
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s %s: non-JSON body %q", method, path, raw)
		}
	}
	return resp.StatusCode, out
}

// errCode digs the structured code out of an error envelope.
func errCode(body map[string]any) string {
	e, _ := body["error"].(map[string]any)
	code, _ := e["code"].(string)
	return code
}

// mkTenant provisions a tenant and returns its token.
func mkTenant(t testing.TB, ts *httptest.Server, name string) string {
	t.Helper()
	status, body := call(t, ts, "POST", "/v1/tenants", testAdminToken, map[string]any{"name": name})
	if status != http.StatusCreated {
		t.Fatalf("create tenant %s: status %d body %v", name, status, body)
	}
	tok, _ := body["token"].(string)
	if tok == "" {
		t.Fatalf("create tenant %s: no token in %v", name, body)
	}
	return tok
}

func TestHealthAndRouting(t *testing.T) {
	ts, _ := newTestServer(t)
	status, body := call(t, ts, "GET", "/healthz", "", nil)
	if status != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", status, body)
	}
	// Unknown routes come back as structured JSON, not the mux's text page.
	status, body = call(t, ts, "GET", "/no/such/route", "", nil)
	if status != http.StatusNotFound || errCode(body) != ErrNotFound {
		t.Fatalf("unknown route: %d %v", status, body)
	}
}

func TestTenantLifecycleAndAuth(t *testing.T) {
	ts, _ := newTestServer(t)

	// Tenant lifecycle is admin-only.
	status, body := call(t, ts, "POST", "/v1/tenants", "", map[string]any{"name": "acme"})
	if status != http.StatusUnauthorized || errCode(body) != ErrUnauthorized {
		t.Fatalf("create without token: %d %v", status, body)
	}
	status, body = call(t, ts, "POST", "/v1/tenants", "wrong", map[string]any{"name": "acme"})
	if status != http.StatusUnauthorized {
		t.Fatalf("create with wrong token: %d %v", status, body)
	}

	acme := mkTenant(t, ts, "acme")
	globex := mkTenant(t, ts, "globex")

	// Names are unique (case-insensitive) and validated.
	status, body = call(t, ts, "POST", "/v1/tenants", testAdminToken, map[string]any{"name": "ACME"})
	if status != http.StatusConflict || errCode(body) != ErrConflict {
		t.Fatalf("duplicate tenant: %d %v", status, body)
	}
	status, body = call(t, ts, "POST", "/v1/tenants", testAdminToken, map[string]any{"name": "no spaces"})
	if status != http.StatusBadRequest || errCode(body) != ErrBadRequest {
		t.Fatalf("invalid tenant name: %d %v", status, body)
	}

	// A tenant token opens its own namespace but not a peer's.
	status, _ = call(t, ts, "GET", "/v1/tenants/acme/calendars", acme, nil)
	if status != http.StatusOK {
		t.Fatalf("own namespace: %d", status)
	}
	status, body = call(t, ts, "GET", "/v1/tenants/acme/calendars", globex, nil)
	if status != http.StatusForbidden || errCode(body) != ErrForbidden {
		t.Fatalf("cross-tenant token: %d %v", status, body)
	}
	status, body = call(t, ts, "GET", "/v1/tenants/acme/calendars", "", nil)
	if status != http.StatusUnauthorized {
		t.Fatalf("no token: %d %v", status, body)
	}
	// The admin token opens every namespace.
	status, _ = call(t, ts, "GET", "/v1/tenants/acme/calendars", testAdminToken, nil)
	if status != http.StatusOK {
		t.Fatalf("admin in tenant namespace: %d", status)
	}

	// Drop, then the namespace is gone.
	status, _ = call(t, ts, "DELETE", "/v1/tenants/globex", testAdminToken, nil)
	if status != http.StatusNoContent {
		t.Fatalf("drop tenant: %d", status)
	}
	status, body = call(t, ts, "GET", "/v1/tenants/globex/calendars", globex, nil)
	if status != http.StatusNotFound {
		t.Fatalf("dropped tenant namespace: %d %v", status, body)
	}
}

// TestTokenComparison pins the bearer-token check (one constant-time helper
// behind both the tenant and the admin gate): only the whole token matches.
func TestTokenComparison(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")
	sameLen := strings.Repeat("z", len(tok)) // tokens are hex: never equal
	for _, tc := range []struct {
		name, path, token string
		want              int
	}{
		{"right token", "/v1/tenants/acme/calendars", tok, http.StatusOK},
		{"wrong token of equal length", "/v1/tenants/acme/calendars", sameLen, http.StatusForbidden},
		{"prefix of the token", "/v1/tenants/acme/calendars", tok[:len(tok)-1], http.StatusForbidden},
		{"token plus a byte", "/v1/tenants/acme/calendars", tok + "0", http.StatusForbidden},
		{"empty", "/v1/tenants/acme/calendars", "", http.StatusUnauthorized},
		{"admin token on a tenant route", "/v1/tenants/acme/calendars", testAdminToken, http.StatusOK},
		{"prefix of the admin token on a tenant route", "/v1/tenants/acme/calendars", testAdminToken[:5], http.StatusForbidden},
		{"admin token on an admin route", "/v1/tenants", testAdminToken, http.StatusOK},
		{"prefix of the admin token on an admin route", "/v1/tenants", testAdminToken[:5], http.StatusUnauthorized},
		{"tenant token on an admin route", "/v1/tenants", tok, http.StatusUnauthorized},
		{"empty on an admin route", "/v1/tenants", "", http.StatusUnauthorized},
	} {
		if status, body := call(t, ts, "GET", tc.path, tc.token, nil); status != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, status, tc.want, body)
		}
	}
}

// TestCalendarDeleteStatus: only "no such calendar" is a 404; a catalog
// transaction that fails (here an event rule vetoing deletes on CALENDARS)
// is a 500, not a claim that the calendar does not exist.
func TestCalendarDeleteStatus(t *testing.T) {
	ts, srv := newTestServer(t)
	tok := mkTenant(t, ts, "acme")

	status, body := call(t, ts, "DELETE", "/v1/tenants/acme/calendars/nope", tok, nil)
	if status != http.StatusNotFound || errCode(body) != ErrNotFound {
		t.Fatalf("delete of an undefined calendar: %d %v", status, body)
	}

	status, body = call(t, ts, "PUT", "/v1/tenants/acme/calendars/weekdays", tok,
		map[string]any{"derivation": "[1,2,3,4,5]/DAYS:during:WEEKS"})
	if status != http.StatusCreated {
		t.Fatalf("put: %d %v", status, body)
	}
	tn, _ := srv.reg.Get("acme")
	err := tn.System().OnEvent("veto-drops", calsys.EvDelete, caldb.TableName, nil,
		func(*calsys.Txn, *calsys.Event) error { return errors.New("vetoed") })
	if err != nil {
		t.Fatalf("OnEvent: %v", err)
	}
	status, body = call(t, ts, "DELETE", "/v1/tenants/acme/calendars/weekdays", tok, nil)
	if status != http.StatusInternalServerError || errCode(body) != ErrInternal {
		t.Fatalf("delete with a failing catalog transaction: %d %v", status, body)
	}
}

func TestCalendarCRUD(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")

	// Derived calendar from a literal derivation.
	status, body := call(t, ts, "PUT", "/v1/tenants/acme/calendars/weekdays", tok,
		map[string]any{"derivation": "[1,2,3,4,5]/DAYS:during:WEEKS"})
	if status != http.StatusCreated {
		t.Fatalf("put derived: %d %v", status, body)
	}
	if body["granularity"] != "DAYS" || body["stored"] != false {
		t.Fatalf("derived entry: %v", body)
	}

	// Derived calendar from a recurrence schema: the response carries the
	// compiled derivation.
	status, body = call(t, ts, "PUT", "/v1/tenants/acme/calendars/paydays", tok,
		map[string]any{"recurrence": map[string]any{"cycle": "monthly", "days": []int{15, -1}}})
	if status != http.StatusCreated {
		t.Fatalf("put recurrence: %d %v", status, body)
	}
	// The catalog canonicalizes derivations to script form; the compiled
	// expression is inside.
	if d, _ := body["derivation"].(string); !strings.Contains(d, "[-1,15]/(DAYS:during:MONTHS)") {
		t.Fatalf("compiled derivation: %q", body["derivation"])
	}

	// Stored calendar from explicit days; replace works in place.
	status, body = call(t, ts, "PUT", "/v1/tenants/acme/calendars/holidays", tok,
		map[string]any{"days": []string{"1993-01-01", "1993-07-04"}})
	if status != http.StatusCreated || body["stored"] != true {
		t.Fatalf("put stored: %d %v", status, body)
	}
	status, body = call(t, ts, "PUT", "/v1/tenants/acme/calendars/holidays", tok,
		map[string]any{"days": []string{"1993-01-01", "1993-07-04", "1993-12-25"}})
	if status != http.StatusOK || body["replaced"] != true {
		t.Fatalf("replace stored: %d %v", status, body)
	}

	// Redefining a derived calendar conflicts; storing days under a derived
	// name conflicts too.
	status, body = call(t, ts, "PUT", "/v1/tenants/acme/calendars/weekdays", tok,
		map[string]any{"derivation": "DAYS"})
	if status != http.StatusConflict || errCode(body) != ErrConflict {
		t.Fatalf("redefine derived: %d %v", status, body)
	}
	status, body = call(t, ts, "PUT", "/v1/tenants/acme/calendars/weekdays", tok,
		map[string]any{"days": []string{"1993-01-01"}})
	if status != http.StatusConflict {
		t.Fatalf("store over derived: %d %v", status, body)
	}

	// Exactly one body variant.
	status, body = call(t, ts, "PUT", "/v1/tenants/acme/calendars/both", tok,
		map[string]any{"derivation": "DAYS", "days": []string{"1993-01-01"}})
	if status != http.StatusBadRequest || errCode(body) != ErrBadRequest {
		t.Fatalf("two variants: %d %v", status, body)
	}

	// List is sorted; get and delete round-trip.
	status, body = call(t, ts, "GET", "/v1/tenants/acme/calendars", tok, nil)
	if status != http.StatusOK {
		t.Fatalf("list: %d %v", status, body)
	}
	cals, _ := body["calendars"].([]any)
	var names []string
	for _, c := range cals {
		m, _ := c.(map[string]any)
		names = append(names, m["name"].(string))
	}
	if strings.Join(names, ",") != "holidays,paydays,weekdays" {
		t.Fatalf("list order: %v", names)
	}
	status, body = call(t, ts, "GET", "/v1/tenants/acme/calendars/paydays", tok, nil)
	if status != http.StatusOK || body["name"] != "paydays" {
		t.Fatalf("get: %d %v", status, body)
	}
	status, _ = call(t, ts, "DELETE", "/v1/tenants/acme/calendars/paydays", tok, nil)
	if status != http.StatusNoContent {
		t.Fatalf("delete: %d", status)
	}
	status, body = call(t, ts, "GET", "/v1/tenants/acme/calendars/paydays", tok, nil)
	if status != http.StatusNotFound || errCode(body) != ErrNotFound {
		t.Fatalf("get after delete: %d %v", status, body)
	}
}

// TestVetOnWrite proves definitions are vetted before the catalog is
// touched: a cyclic derivation comes back as a 400 with the analyzer's
// CV-coded, positioned diagnostics in the JSON body, and the catalog stays
// clean.
func TestVetOnWrite(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")

	// Self-referential derivation: calvet reports a CV002 cycle.
	status, body := call(t, ts, "PUT", "/v1/tenants/acme/calendars/selfloop", tok,
		map[string]any{"derivation": "selfloop + DAYS"})
	if status != http.StatusBadRequest {
		t.Fatalf("cyclic definition accepted: %d %v", status, body)
	}
	if errCode(body) != ErrVetFailed {
		t.Fatalf("error code: %v", body)
	}
	e, _ := body["error"].(map[string]any)
	diags, _ := e["diagnostics"].([]any)
	if len(diags) == 0 {
		t.Fatalf("no diagnostics in %v", body)
	}
	found := false
	for _, d := range diags {
		m, _ := d.(map[string]any)
		if m["code"] == "CV002" {
			found = true
			if m["severity"] != "error" {
				t.Fatalf("CV002 severity: %v", m)
			}
		}
	}
	if !found {
		t.Fatalf("no CV002 diagnostic in %v", diags)
	}

	// The rejected name never reached the catalog.
	status, _ = call(t, ts, "GET", "/v1/tenants/acme/calendars/selfloop", tok, nil)
	if status != http.StatusNotFound {
		t.Fatalf("rejected calendar is defined: %d", status)
	}

	// Undefined references are vetted too (CV001), on calendars and rules.
	status, body = call(t, ts, "PUT", "/v1/tenants/acme/calendars/dangling", tok,
		map[string]any{"derivation": "nosuchcal + DAYS"})
	if status != http.StatusBadRequest || errCode(body) != ErrVetFailed {
		t.Fatalf("undefined ref: %d %v", status, body)
	}
	status, body = call(t, ts, "PUT", "/v1/tenants/acme/rules/dangling", tok,
		map[string]any{"expr": "nosuchcal"})
	if status != http.StatusBadRequest || errCode(body) != ErrVetFailed {
		t.Fatalf("undefined rule ref: %d %v", status, body)
	}

	// A parse error surfaces as a positioned PARSE diagnostic.
	status, body = call(t, ts, "PUT", "/v1/tenants/acme/calendars/broken", tok,
		map[string]any{"derivation": "DAYS:during:"})
	if status != http.StatusBadRequest || errCode(body) != ErrVetFailed {
		t.Fatalf("parse error: %d %v", status, body)
	}

	// So does an assignment to the reserved word `today`.
	status, body = call(t, ts, "PUT", "/v1/tenants/acme/calendars/shadow", tok,
		map[string]any{"derivation": "{today = [1]/DAYS:during:WEEKS; return (today);}"})
	e, _ = body["error"].(map[string]any)
	diags, _ = e["diagnostics"].([]any)
	if status != http.StatusBadRequest || errCode(body) != ErrVetFailed || len(diags) != 1 {
		t.Fatalf("assignment to today: %d %v", status, body)
	}
	if m, _ := diags[0].(map[string]any); m["code"] != "PARSE" || !strings.Contains(fmt.Sprint(m["message"]), "cannot assign to today") {
		t.Fatalf("assignment to today: diagnostic %v", diags[0])
	}
}

// TestRecurrenceSchemaErrors proves invalid recurrence schemas come back as
// bad_schema with the offending field as the position.
func TestRecurrenceSchemaErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")
	status, body := call(t, ts, "PUT", "/v1/tenants/acme/calendars/bad", tok,
		map[string]any{"recurrence": map[string]any{"cycle": "weekly", "wdays": []string{"monday", "funday"}}})
	if status != http.StatusBadRequest || errCode(body) != ErrBadSchema {
		t.Fatalf("bad schema: %d %v", status, body)
	}
	e, _ := body["error"].(map[string]any)
	if e["position"] != "wdays[1]" {
		t.Fatalf("position: %v", e)
	}
}

func TestRuleCRUD(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")

	// Define from a recurrence; the response carries the compiled expr and
	// the next firing date after the tenant clock (anchored 1993-01-01).
	status, body := call(t, ts, "PUT", "/v1/tenants/acme/rules/board-meeting", tok,
		map[string]any{"recurrence": map[string]any{"cycle": "monthly", "ordinal": "third", "wdays": []string{"friday"}}})
	if status != http.StatusCreated {
		t.Fatalf("put rule: %d %v", status, body)
	}
	if body["next"] != "1993-01-15" {
		t.Fatalf("next firing: %v", body)
	}

	// Duplicate names conflict.
	status, body = call(t, ts, "PUT", "/v1/tenants/acme/rules/board-meeting", tok,
		map[string]any{"expr": "DAYS"})
	if status != http.StatusConflict || errCode(body) != ErrConflict {
		t.Fatalf("duplicate rule: %d %v", status, body)
	}

	// Exactly one of expr/recurrence.
	status, body = call(t, ts, "PUT", "/v1/tenants/acme/rules/none", tok, map[string]any{})
	if status != http.StatusBadRequest {
		t.Fatalf("empty rule body: %d %v", status, body)
	}

	// Get, list, next-by-rule, delete.
	status, body = call(t, ts, "GET", "/v1/tenants/acme/rules/board-meeting", tok, nil)
	if status != http.StatusOK || body["expr"] != "[3]/(([5]/(DAYS:during:WEEKS)):during:MONTHS)" {
		t.Fatalf("get rule: %d %v", status, body)
	}
	status, body = call(t, ts, "GET", "/v1/tenants/acme/rules", tok, nil)
	if status != http.StatusOK {
		t.Fatalf("list rules: %d %v", status, body)
	}
	if rules, _ := body["rules"].([]any); len(rules) != 1 {
		t.Fatalf("rule list: %v", body)
	}
	status, body = call(t, ts, "POST", "/v1/tenants/acme/next", tok,
		map[string]any{"rule": "board-meeting", "after": "1993-01-20"})
	if status != http.StatusOK || body["next"] != "1993-02-19" {
		t.Fatalf("next by rule: %d %v", status, body)
	}
	status, _ = call(t, ts, "DELETE", "/v1/tenants/acme/rules/board-meeting", tok, nil)
	if status != http.StatusNoContent {
		t.Fatalf("delete rule: %d", status)
	}
	status, _ = call(t, ts, "GET", "/v1/tenants/acme/rules/board-meeting", tok, nil)
	if status != http.StatusNotFound {
		t.Fatalf("get after delete: %d", status)
	}
}

// A branching script is evaluated by the runner, whose temporaries mean
// their expressions over the whole script: /expand serves the last day of
// January and of February, and not March 17, the window's last day, as
// March's (the month ends on the 31st, outside the window).
func TestExpandBranchingScript(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")
	if status, body := call(t, ts, "PUT", "/v1/tenants/acme/calendars/LDMB", tok, map[string]any{
		"derivation": `{x = DAYS; if (x) return ([n]/x:during:MONTHS); else return (x);}`}); status != http.StatusCreated {
		t.Fatalf("define: %d %v", status, body)
	}
	status, body := call(t, ts, "POST", "/v1/tenants/acme/expand", tok, map[string]any{
		"expr": "LDMB", "from": "1993-01-01", "to": "1993-03-17"})
	if status != http.StatusOK {
		t.Fatalf("expand: %d %v", status, body)
	}
	var days []string
	for _, iv := range body["intervals"].([]any) {
		m := iv.(map[string]any)
		days = append(days, m["start"].(string)+".."+m["end"].(string))
	}
	if got := strings.Join(days, ","); got != "1993-01-31..1993-01-31,1993-02-28..1993-02-28" {
		t.Errorf("expand LDMB = %s", got)
	}
}

func TestExpand(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")

	status, body := call(t, ts, "POST", "/v1/tenants/acme/expand", tok, map[string]any{
		"recurrence": map[string]any{"cycle": "monthly", "ordinal": "third", "wdays": []string{"friday"}},
		"from":       "1993-01-01", "to": "1993-03-31",
	})
	if status != http.StatusOK {
		t.Fatalf("expand: %d %v", status, body)
	}
	ivs, _ := body["intervals"].([]any)
	var starts []string
	for _, iv := range ivs {
		m, _ := iv.(map[string]any)
		starts = append(starts, m["start"].(string))
	}
	if strings.Join(starts, ",") != "1993-01-15,1993-02-19,1993-03-19" {
		t.Fatalf("expand intervals: %v", starts)
	}
	if body["count"] != float64(3) {
		t.Fatalf("expand count: %v", body["count"])
	}

	// Expansion sees the tenant's own catalog.
	call(t, ts, "PUT", "/v1/tenants/acme/calendars/holidays", tok,
		map[string]any{"days": []string{"1993-07-04", "1993-12-25"}})
	status, body = call(t, ts, "POST", "/v1/tenants/acme/expand", tok, map[string]any{
		"expr": "holidays", "from": "1993-01-01", "to": "1993-12-31",
	})
	if status != http.StatusOK {
		t.Fatalf("expand catalog expr: %d %v", status, body)
	}
	if body["count"] != float64(2) {
		t.Fatalf("holiday count: %v", body)
	}

	// Window validation: bad dates, inverted and oversized windows.
	for _, tc := range []struct{ from, to string }{
		{"not-a-date", "1993-01-01"},
		{"1993-01-01", "not-a-date"},
		{"1993-06-01", "1993-01-01"},
		{"1900-01-01", "2300-01-01"},
	} {
		status, body = call(t, ts, "POST", "/v1/tenants/acme/expand", tok, map[string]any{
			"expr": "DAYS", "from": tc.from, "to": tc.to,
		})
		if status != http.StatusBadRequest || errCode(body) != ErrBadWindow {
			t.Fatalf("window %s..%s: %d %v", tc.from, tc.to, status, body)
		}
	}
}

func TestNextInstant(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")

	// A basic-only expression is catalog-independent: every tenant reads
	// the same process-wide lowering.
	status, body := call(t, ts, "POST", "/v1/tenants/acme/next", tok, map[string]any{
		"recurrence": map[string]any{"cycle": "yearly", "month": 7, "days": []int{4}},
	})
	if status != http.StatusOK {
		t.Fatalf("next: %d %v", status, body)
	}
	if body["next"] != "1993-07-04" || body["shared_plan"] != true {
		t.Fatalf("next basic: %v", body)
	}

	// An expression over the tenant catalog does not.
	call(t, ts, "PUT", "/v1/tenants/acme/calendars/holidays", tok,
		map[string]any{"days": []string{"1993-07-04", "1993-12-25"}})
	status, body = call(t, ts, "POST", "/v1/tenants/acme/next", tok, map[string]any{
		"expr": "holidays", "after": "1993-08-01",
	})
	if status != http.StatusOK {
		t.Fatalf("next catalog: %d %v", status, body)
	}
	if body["next"] != "1993-12-25" || body["shared_plan"] != false {
		t.Fatalf("next catalog: %v", body)
	}

	// A selection over nested groups picks per week-in-a-month group, as
	// /expand lists it: Friday January 1st, then Monday the 4th.
	status, body = call(t, ts, "POST", "/v1/tenants/acme/next", tok, map[string]any{
		"expr": "[1]/(DAYS:during:WEEKS):during:MONTHS", "after": "1993-01-01",
	})
	if status != http.StatusOK || body["next"] != "1993-01-04" || body["shared_plan"] != true {
		t.Fatalf("next nested selection: %d %v", status, body)
	}
}

// TestStructuredBodyErrors proves the request-body guardrails answer in the
// same structured JSON envelope as everything else.
func TestStructuredBodyErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")

	// Malformed JSON.
	req, _ := http.NewRequest("PUT", ts.URL+"/v1/tenants/acme/calendars/x",
		strings.NewReader("{not json"))
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("bad-JSON response is not JSON: %q", raw)
	}
	if resp.StatusCode != http.StatusBadRequest || errCode(body) != ErrBadJSON {
		t.Fatalf("bad JSON: %d %v", resp.StatusCode, body)
	}

	// Unknown fields are rejected, not silently dropped.
	status, body := call(t, ts, "PUT", "/v1/tenants/acme/calendars/x", tok,
		map[string]any{"derivation": "DAYS", "bogus": 1})
	if status != http.StatusBadRequest || errCode(body) != ErrBadJSON {
		t.Fatalf("unknown field: %d %v", status, body)
	}

	// Oversized bodies come back as structured 413s.
	today, _ := chronology.ParseCivil("1993-01-01")
	small, err := New(Config{AdminToken: testAdminToken, Today: today, MaxBodyBytes: 256})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tss := httptest.NewServer(small.Handler())
	defer tss.Close()
	tok2 := mkTenant(t, tss, "acme")
	big := map[string]any{"derivation": strings.Repeat("DAYS + ", 200) + "DAYS"}
	status, body = call(t, tss, "PUT", "/v1/tenants/acme/calendars/big", tok2, big)
	if status != http.StatusRequestEntityTooLarge || errCode(body) != ErrTooLarge {
		t.Fatalf("oversized body: %d %v", status, body)
	}
}

// TestTrailingDataAfterBody: nothing but whitespace may follow the JSON value
// of a request body. A stray closing bracket used to slip through, because
// json.Decoder.More reports false in front of `}` and `]`.
func TestTrailingDataAfterBody(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")
	const value = `{"expr":"DAYS","from":"1993-01-01","to":"1993-01-03"}`
	for _, tc := range []struct {
		name, trailer string
		status        int
	}{
		{"nothing", "", http.StatusOK},
		{"whitespace-only", " \n\t\r\n ", http.StatusOK},
		{"closing-brace", "}", http.StatusBadRequest},
		{"closing-bracket", "]", http.StatusBadRequest},
		{"letter", "x", http.StatusBadRequest},
		{"second-value", "{}", http.StatusBadRequest},
		{"brace-after-whitespace", "\n }", http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := rawCall(t, ts, "POST", "/v1/tenants/acme/expand", tok, []byte(value+tc.trailer))
			if status != tc.status {
				t.Fatalf("body %q: status %d, want %d (%s)", value+tc.trailer, status, tc.status, raw)
			}
			if status == http.StatusOK {
				return
			}
			var env errorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("error body is not JSON: %q", raw)
			}
			if env.Error.Code != ErrBadJSON || !strings.Contains(env.Error.Message, "trailing data") {
				t.Fatalf("error %+v, want %s \"trailing data\"", env.Error, ErrBadJSON)
			}
		})
	}
}

// TestXAuthTokenHeader proves the alternate header spelling authenticates.
func TestXAuthTokenHeader(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")
	req, _ := http.NewRequest("GET", ts.URL+"/v1/tenants/acme/calendars", nil)
	req.Header.Set("X-Auth-Token", tok)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("X-Auth-Token auth: %d", resp.StatusCode)
	}
}

// TestStatsEndpoint sanity-checks the admin stats surface.
func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// The cache is process-wide: a server with no tenant yet reports it too.
	_, fresh := call(t, ts, "GET", "/v1/stats", testAdminToken, nil)
	if mat, ok := fresh["matcache"].(map[string]any); !ok || mat["budget"].(float64) <= 0 {
		t.Fatalf("fresh server's matcache stats: %v", fresh["matcache"])
	}
	mkTenant(t, ts, "acme")
	status, body := call(t, ts, "GET", "/v1/stats", testAdminToken, nil)
	if status != http.StatusOK {
		t.Fatalf("stats: %d %v", status, body)
	}
	if body["tenants"] != float64(1) {
		t.Fatalf("tenant count: %v", body)
	}
	status, _ = call(t, ts, "GET", "/v1/stats", "", nil)
	if status != http.StatusUnauthorized {
		t.Fatalf("stats without admin: %d", status)
	}
}

// TestCacheStatsEndpoint sanity-checks the admin cache observability
// surface: the matcache counters, and the prepared-expression tables and the
// memo of lowerings beside them.
func TestCacheStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	mkTenant(t, ts, "acme")
	status, body := call(t, ts, "GET", "/debug/cachestats", testAdminToken, nil)
	if status != http.StatusOK {
		t.Fatalf("cachestats: %d %v", status, body)
	}
	agg, ok := body["matcache"].(map[string]any)
	if !ok {
		t.Fatalf("no matcache aggregate in %v", body)
	}
	for _, field := range []string{"hits", "misses", "flights", "flight_waits", "bytes", "budget", "derived",
		"expressions"} {
		if _, ok := agg[field]; !ok {
			t.Fatalf("aggregate missing %q: %v", field, agg)
		}
	}
	if _, ok := agg["generated"]; ok {
		t.Fatalf("basic calendars are not matcache entries, yet the aggregate has a generated kind: %v", agg)
	}
	if prep, _ := body["prepared"].(map[string]any); prep["stale"] == nil {
		t.Fatalf("no prepared stale count in %v", body)
	}
	lowered, _ := body["lowered"].(map[string]any)
	for _, field := range []string{"entries", "bytes", "hits", "misses", "resets"} {
		if _, ok := lowered[field]; !ok {
			t.Fatalf("lowered memo missing %q: %v", field, body)
		}
	}
	if status, _ = call(t, ts, "GET", "/debug/cachestats", "", nil); status != http.StatusUnauthorized {
		t.Fatalf("cachestats without admin: %d", status)
	}
}

// TestConcurrentTenants hammers several tenant namespaces concurrently —
// the race job runs this under -race to prove the registry, the shared
// plan cache and the per-tenant systems hold up.
func TestConcurrentTenants(t *testing.T) {
	ts, _ := newTestServer(t)
	const nTenants = 4
	tokens := make([]string, nTenants)
	for i := range tokens {
		tokens[i] = mkTenant(t, ts, fmt.Sprintf("t%d", i))
	}
	var wg sync.WaitGroup
	errCh := make(chan error, nTenants*4)
	for i, tok := range tokens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("t%d", i)
			base := "/v1/tenants/" + name
			for j := 0; j < 8; j++ {
				status, body := call(t, ts, "PUT", fmt.Sprintf("%s/calendars/cal%d", base, j), tok,
					map[string]any{"days": []string{"1993-03-15", "1993-09-01"}})
				if status != http.StatusCreated {
					errCh <- fmt.Errorf("%s put cal%d: %d %v", name, j, status, body)
					return
				}
				status, body = call(t, ts, "POST", base+"/next", tok, map[string]any{
					"recurrence": map[string]any{"cycle": "monthly", "ordinal": "third", "wdays": []string{"friday"}},
				})
				if status != http.StatusOK || body["next"] != "1993-01-15" {
					errCh <- fmt.Errorf("%s next: %d %v", name, status, body)
					return
				}
				status, body = call(t, ts, "POST", base+"/expand", tok, map[string]any{
					"expr": fmt.Sprintf("cal%d", j), "from": "1993-01-01", "to": "1993-12-31",
				})
				if status != http.StatusOK || body["count"] != float64(2) {
					errCh <- fmt.Errorf("%s expand cal%d: %d %v", name, j, status, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// A provably-empty rule expression defines successfully (warnings never
// reject a write) but the 201 envelope must carry the CV010 diagnostic so
// clients learn the rule will never fire.
func TestRulePutSurfacesSymbolicWarnings(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")
	status, body := call(t, ts, "PUT", "/v1/tenants/acme/rules/never", tok,
		map[string]any{"expr": "DAYS - DAYS"})
	if status != http.StatusCreated {
		t.Fatalf("create: %d %v", status, body)
	}
	diags, _ := body["diagnostics"].([]any)
	if len(diags) == 0 {
		t.Fatalf("no diagnostics in success envelope: %v", body)
	}
	found := false
	for _, d := range diags {
		m, _ := d.(map[string]any)
		if m["code"] == "CV010" && m["severity"] == "warning" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no CV010 warning in %v", diags)
	}

	// A clean rule keeps a clean envelope.
	status, body = call(t, ts, "PUT", "/v1/tenants/acme/rules/daily", tok,
		map[string]any{"expr": "DAYS"})
	if status != http.StatusCreated {
		t.Fatalf("create daily: %d %v", status, body)
	}
	if _, present := body["diagnostics"]; present {
		t.Fatalf("unexpected diagnostics on clean rule: %v", body)
	}
}
