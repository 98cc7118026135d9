package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"calsys"
	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/core/callang/symbolic"
	"calsys/internal/core/matcache"
	"calsys/internal/core/plan"
	"calsys/internal/rules"
)

// DefaultMaxBodyBytes bounds request bodies (1 MiB): calendar definitions
// and recurrence schemas are small; anything bigger is a mistake or abuse.
const DefaultMaxBodyBytes = 1 << 20

// maxWindowDays caps an expansion window (200 years): windowed evaluation
// is O(output), and an unbounded window lets one request monopolize a
// worker.
const maxWindowDays = 200 * 366

// Config assembles a Server.
type Config struct {
	// AdminToken authorizes tenant lifecycle and /v1/stats.
	AdminToken string
	// Today anchors every tenant's clock (zero value: the chronology
	// epoch, 1987-01-01).
	Today chronology.Civil
	// MaxBodyBytes caps request bodies; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
}

// Server is the calserved HTTP layer: token auth, per-tenant CRUD with
// vet-on-write, windowed expansion and next-instant queries, all errors as
// structured JSON.
type Server struct {
	reg     *Registry
	maxBody int64
	mux     *http.ServeMux
}

// New assembles a server.
func New(cfg Config) (*Server, error) {
	if cfg.AdminToken == "" {
		return nil, fmt.Errorf("serve: Config.AdminToken is required")
	}
	today := cfg.Today
	if today == (chronology.Civil{}) {
		today = calsys.DefaultEpoch
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	s := &Server{
		reg:     NewRegistry(cfg.AdminToken, today),
		maxBody: maxBody,
		mux:     http.NewServeMux(),
	}
	s.routes()
	return s, nil
}

// Registry exposes the tenant registry (tests, embedding).
func (s *Server) Registry() *Registry { return s.reg }

func (s *Server) routes() {
	m := s.mux
	m.HandleFunc("GET /healthz", s.handleHealth)
	m.HandleFunc("POST /v1/tenants", s.admin(s.handleTenantCreate))
	m.HandleFunc("GET /v1/tenants", s.admin(s.handleTenantList))
	m.HandleFunc("DELETE /v1/tenants/{tenant}", s.admin(s.handleTenantDrop))
	m.HandleFunc("GET /v1/stats", s.admin(s.handleStats))
	m.HandleFunc("GET /debug/cachestats", s.admin(s.handleCacheStats))

	m.HandleFunc("GET /v1/tenants/{tenant}/calendars", s.tenant(s.handleCalendarList))
	m.HandleFunc("PUT /v1/tenants/{tenant}/calendars/{name}", s.tenant(s.handleCalendarPut))
	m.HandleFunc("GET /v1/tenants/{tenant}/calendars/{name}", s.tenant(s.handleCalendarGet))
	m.HandleFunc("DELETE /v1/tenants/{tenant}/calendars/{name}", s.tenant(s.handleCalendarDelete))

	m.HandleFunc("GET /v1/tenants/{tenant}/rules", s.tenant(s.handleRuleList))
	m.HandleFunc("PUT /v1/tenants/{tenant}/rules/{name}", s.tenant(s.handleRulePut))
	m.HandleFunc("GET /v1/tenants/{tenant}/rules/{name}", s.tenant(s.handleRuleGet))
	m.HandleFunc("DELETE /v1/tenants/{tenant}/rules/{name}", s.tenant(s.handleRuleDelete))

	m.HandleFunc("POST /v1/tenants/{tenant}/expand", s.tenant(s.handleExpand))
	m.HandleFunc("POST /v1/tenants/{tenant}/next", s.tenant(s.handleNext))

	// Catch-all: unmatched paths get the same structured 404 as missing
	// resources, not the mux's plain-text page.
	m.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, ErrorBody{
			Code: ErrNotFound, Message: fmt.Sprintf("no route %s %s", r.Method, r.URL.Path),
		})
	})
}

// Handler returns the root handler: body-capped, panic-isolated routing.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		defer func() {
			if p := recover(); p != nil {
				writeError(w, http.StatusInternalServerError, ErrorBody{
					Code: ErrInternal, Message: fmt.Sprintf("internal error: %v", p),
				})
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// token extracts the bearer token: Authorization: Bearer <t> or
// X-Auth-Token: <t> (the kazoo convention).
func token(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if t, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(t)
		}
	}
	return strings.TrimSpace(r.Header.Get("X-Auth-Token"))
}

// admin wraps a handler with admin-token auth.
func (s *Server) admin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.reg.IsAdmin(token(r)) {
			writeError(w, http.StatusUnauthorized, ErrorBody{
				Code: ErrUnauthorized, Message: "admin token required",
			})
			return
		}
		h(w, r)
	}
}

// tenant wraps a handler with tenant auth: the path tenant's own token or
// the admin token, each compared in constant time. The resolved tenant is
// handed to the handler as an argument.
func (s *Server) tenant(h func(w http.ResponseWriter, r *http.Request, t *Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		t, ok := s.reg.Get(name)
		if !ok {
			writeError(w, http.StatusNotFound, ErrorBody{
				Code: ErrNotFound, Message: fmt.Sprintf("no tenant %q", name),
			})
			return
		}
		tok := token(r)
		if tok == "" {
			writeError(w, http.StatusUnauthorized, ErrorBody{
				Code: ErrUnauthorized, Message: "token required (Authorization: Bearer or X-Auth-Token)",
			})
			return
		}
		if !tokenEqual(tok, t.Token) && !s.reg.IsAdmin(tok) {
			writeError(w, http.StatusForbidden, ErrorBody{
				Code: ErrForbidden, Message: fmt.Sprintf("token does not grant access to tenant %q", name),
			})
			return
		}
		h(w, r, t)
	}
}

// decode reads a JSON body into v, mapping oversize and malformed bodies to
// structured errors. Returns false after writing the error response.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if !writeTooLarge(w, err) {
			writeError(w, http.StatusBadRequest, ErrorBody{
				Code: ErrBadJSON, Message: "bad JSON body: " + err.Error(),
			})
		}
		return false
	}
	// Trailing garbage after the JSON value is a client bug: only whitespace
	// may follow, so the next token must be the end of the body (More alone
	// would let a stray `}` or `]` through).
	if _, err := dec.Token(); err != io.EOF {
		if !writeTooLarge(w, err) {
			writeError(w, http.StatusBadRequest, ErrorBody{
				Code: ErrBadJSON, Message: "trailing data after JSON body",
			})
		}
		return false
	}
	return true
}

// writeTooLarge answers 413 when err is the body cap tripping, and reports
// whether it did.
func writeTooLarge(w http.ResponseWriter, err error) bool {
	var maxErr *http.MaxBytesError
	if !errors.As(err, &maxErr) {
		return false
	}
	writeError(w, http.StatusRequestEntityTooLarge, ErrorBody{
		Code: ErrTooLarge, Message: fmt.Sprintf("request body over %d bytes", maxErr.Limit),
	})
	return true
}

// --- health and admin ----------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type tenantCreateReq struct {
	Name string `json:"name"`
}

type tenantCreateResp struct {
	Name  string `json:"name"`
	Token string `json:"token"`
}

func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	var req tenantCreateReq
	if !s.decode(w, r, &req) {
		return
	}
	t, err := s.reg.Create(req.Name)
	if err != nil {
		status, code := http.StatusBadRequest, ErrBadRequest
		if errors.Is(err, ErrTenantExists) {
			status, code = http.StatusConflict, ErrConflict
		}
		writeError(w, status, ErrorBody{Code: code, Message: err.Error(), Position: "name"})
		return
	}
	writeJSON(w, http.StatusCreated, tenantCreateResp{Name: t.Name, Token: t.Token})
}

func (s *Server) handleTenantList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.reg.Names()})
}

func (s *Server) handleTenantDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !s.reg.Drop(name) {
		writeError(w, http.StatusNotFound, ErrorBody{
			Code: ErrNotFound, Message: fmt.Sprintf("no tenant %q", name),
		})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"tenants":  len(s.reg.Names()),
		"prepared": s.reg.preparedStats(),
		"matcache": matcache.Shared().Stats(),
	})
}

// handleCacheStats reports the process-wide materialization cache's counters
// (hits/misses/flights/…, resident bytes by kind of key), so operators can
// watch hit ratio and stampede behavior live; and beside it the tenants'
// prepared-expression tables and the process-wide memo of lowered basic-only
// expressions.
func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"matcache": matcache.Shared().Stats(),
		"prepared": s.reg.preparedStats(),
		"lowered":  symbolic.Stats(),
	})
}

// --- calendars -----------------------------------------------------------

// calendarPutReq defines or replaces a calendar. Exactly one of Derivation,
// Recurrence or Days must be set: a calendar-language derivation, a
// recurrence schema (compiled to a derivation), or explicit stored dates
// (a HOLIDAYS-style values calendar, replaceable in place).
type calendarPutReq struct {
	Derivation string      `json:"derivation,omitempty"`
	Recurrence *Recurrence `json:"recurrence,omitempty"`
	Days       []string    `json:"days,omitempty"`
}

// calendarJSON is one catalog entry on the wire.
type calendarJSON struct {
	Name        string   `json:"name"`
	Derivation  string   `json:"derivation,omitempty"`
	EvalPlan    string   `json:"eval_plan,omitempty"`
	Granularity string   `json:"granularity"`
	Lifespan    string   `json:"lifespan"`
	Stored      bool     `json:"stored"`
	Warnings    []string `json:"warnings,omitempty"`
	Replaced    bool     `json:"replaced,omitempty"`
}

func entryJSON(e *calsys.CalendarEntry) calendarJSON {
	return calendarJSON{
		Name:        e.Name,
		Derivation:  e.Derivation,
		EvalPlan:    e.EvalPlan,
		Granularity: e.Gran.String(),
		Lifespan:    e.Lifespan.String(),
		Stored:      e.Values != nil,
		Warnings:    e.Warnings,
	}
}

func (s *Server) handleCalendarPut(w http.ResponseWriter, r *http.Request, t *Tenant) {
	name := r.PathValue("name")
	var req calendarPutReq
	if !s.decode(w, r, &req) {
		return
	}
	set := 0
	for _, ok := range []bool{req.Derivation != "", req.Recurrence != nil, len(req.Days) > 0} {
		if ok {
			set++
		}
	}
	if set != 1 {
		writeError(w, http.StatusBadRequest, ErrorBody{
			Code:    ErrBadRequest,
			Message: "exactly one of derivation, recurrence or days must be set",
		})
		return
	}
	sys := t.System()
	mgr := t.Manager()

	// Stored-values calendar: define, or replace in place when it exists.
	if len(req.Days) > 0 {
		cal, err := s.pointCalendar(sys, req.Days)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrorBody{
				Code: ErrBadRequest, Message: err.Error(), Position: "days",
			})
			return
		}
		replaced := false
		if prev, ok := mgr.Lookup(name); ok {
			if prev.Values == nil {
				writeError(w, http.StatusConflict, ErrorBody{
					Code:    ErrConflict,
					Message: fmt.Sprintf("calendar %q is derived; drop it before storing values under the name", name),
				})
				return
			}
			if err := sys.ReplaceStoredCalendar(name, cal); err != nil {
				writeError(w, http.StatusBadRequest, ErrorBody{Code: ErrBadRequest, Message: err.Error()})
				return
			}
			replaced = true
		} else if err := sys.DefineStoredCalendar(name, cal); err != nil {
			writeError(w, http.StatusBadRequest, ErrorBody{Code: ErrBadRequest, Message: err.Error()})
			return
		}
		e, _ := mgr.Lookup(name)
		resp := entryJSON(e)
		resp.Replaced = replaced
		status := http.StatusCreated
		if replaced {
			status = http.StatusOK
		}
		writeJSON(w, status, resp)
		return
	}

	// Derived calendar: from a literal derivation or a compiled recurrence.
	derivation := req.Derivation
	if req.Recurrence != nil {
		expr, err := req.Recurrence.Compile(sys.Chron())
		if err != nil {
			writeSchemaError(w, err)
			return
		}
		derivation = expr
	}
	if _, exists := mgr.Lookup(name); exists {
		writeDefineError(w, name, caldb.ErrAlreadyDefined)
		return
	}
	// Vet-on-write: reject with the analyzer's positioned CV-coded
	// diagnostics before the catalog is touched (DefineCalendar reads the
	// same Prepared entry: one analysis per write).
	if diags := mgr.Vet(name, derivation); diags.HasErrors() {
		writeVetError(w, fmt.Sprintf("calendar %q", name), diags)
		return
	}
	if err := sys.DefineCalendar(name, derivation, calsys.GranAuto); err != nil {
		writeDefineError(w, name, err)
		return
	}
	e, _ := mgr.Lookup(name)
	writeJSON(w, http.StatusCreated, entryJSON(e))
}

// writeDefineError maps a calendar definition failure: 409 when the name is
// taken (seen by the handler's lookup, or by the catalog when a concurrent
// PUT won the race), 400 otherwise.
func writeDefineError(w http.ResponseWriter, name string, err error) {
	if errors.Is(err, caldb.ErrAlreadyDefined) {
		writeError(w, http.StatusConflict, ErrorBody{
			Code: ErrConflict, Message: fmt.Sprintf("calendar %q already defined", name),
		})
		return
	}
	writeError(w, http.StatusBadRequest, ErrorBody{Code: ErrBadRequest, Message: err.Error()})
}

// pointCalendar builds a stored DAYS calendar from ISO dates.
func (s *Server) pointCalendar(sys *calsys.System, days []string) (*calsys.Calendar, error) {
	ticks := make([]calsys.Tick, 0, len(days))
	for i, d := range days {
		c, err := chronology.ParseCivil(d)
		if err != nil {
			return nil, fmt.Errorf("days[%d]: %v", i, err)
		}
		tick := sys.DayTickOf(c)
		if tick < 1 {
			return nil, fmt.Errorf("days[%d]: %s is before the system epoch", i, c)
		}
		ticks = append(ticks, tick)
	}
	return calsys.PointCalendar(calsys.Day, ticks...)
}

// writeSchemaError maps a recurrence-compile error onto bad_schema with the
// field as position.
func writeSchemaError(w http.ResponseWriter, err error) {
	var se *SchemaError
	if errors.As(err, &se) {
		writeError(w, http.StatusBadRequest, ErrorBody{
			Code: ErrBadSchema, Message: se.Msg, Position: se.Field,
		})
		return
	}
	writeError(w, http.StatusBadRequest, ErrorBody{Code: ErrBadSchema, Message: err.Error()})
}

func (s *Server) handleCalendarList(w http.ResponseWriter, _ *http.Request, t *Tenant) {
	mgr := t.Manager()
	names := mgr.Names()
	out := make([]calendarJSON, 0, len(names))
	for _, n := range names {
		if e, ok := mgr.Lookup(n); ok {
			out = append(out, entryJSON(e))
		}
	}
	// Names() iterates a map; present a stable order.
	sortCalendars(out)
	writeJSON(w, http.StatusOK, map[string]any{"calendars": out})
}

func sortCalendars(cs []calendarJSON) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Name < cs[j-1].Name; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func (s *Server) handleCalendarGet(w http.ResponseWriter, r *http.Request, t *Tenant) {
	name := r.PathValue("name")
	e, ok := t.Manager().Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, ErrorBody{
			Code: ErrNotFound, Message: fmt.Sprintf("no calendar %q", name),
		})
		return
	}
	writeJSON(w, http.StatusOK, entryJSON(e))
}

func (s *Server) handleCalendarDelete(w http.ResponseWriter, r *http.Request, t *Tenant) {
	name := r.PathValue("name")
	if err := t.System().DropCalendar(name); err != nil {
		status, code := http.StatusInternalServerError, ErrInternal
		if errors.Is(err, caldb.ErrNotDefined) {
			status, code = http.StatusNotFound, ErrNotFound
		}
		writeError(w, status, ErrorBody{Code: code, Message: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- rules ---------------------------------------------------------------

// rulePutReq defines a temporal rule from a calendar expression or a
// recurrence schema.
type rulePutReq struct {
	Expr       string      `json:"expr,omitempty"`
	Recurrence *Recurrence `json:"recurrence,omitempty"`
}

// ruleJSON is one rule on the wire.
type ruleJSON struct {
	Name  string `json:"name"`
	Expr  string `json:"expr"`
	Fired int64  `json:"fired"`
	Next  string `json:"next,omitempty"` // next firing date after the tenant clock
	// Diagnostics carries the analyzer's warnings on a successful define
	// (e.g. a CV010 provably-empty expression or a CV011 duplicate of an
	// existing calendar) so clients see them without failing the write.
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
}

func (s *Server) handleRulePut(w http.ResponseWriter, r *http.Request, t *Tenant) {
	name := r.PathValue("name")
	var req rulePutReq
	if !s.decode(w, r, &req) {
		return
	}
	sys := t.System()
	src, ok := s.sourceExpr(w, sys, req.Expr, req.Recurrence)
	if !ok {
		return
	}
	// Vet-on-write for rules too: an undefined or cyclic reference is
	// rejected here with positioned diagnostics, not at probe time.
	// Warnings (provably-empty expressions, duplicates of existing
	// calendars) ride along in the success envelope below. The rule engine
	// and the rendering read the same Prepared entry: one analysis per write.
	diags := t.Manager().Vet("", src)
	if diags.HasErrors() {
		writeVetError(w, fmt.Sprintf("rule %q", name), diags)
		return
	}
	ruleName := t.Name + "/" + name
	err := sys.OnCalendar(ruleName, src, func(_ *calsys.Txn, _ int64) error {
		t.markFired(name)
		return nil
	})
	if err != nil {
		status, code := http.StatusBadRequest, ErrBadRequest
		if errors.Is(err, rules.ErrAlreadyDefined) {
			status, code = http.StatusConflict, ErrConflict
		}
		writeError(w, status, ErrorBody{Code: code, Message: err.Error()})
		return
	}
	t.rememberRule(name, src)
	resp := s.ruleJSON(t, ruleInfo{Name: name, Expr: src})
	if warns := diags.Warnings(); len(warns) > 0 {
		resp.Diagnostics = wireDiags(warns)
	}
	writeJSON(w, http.StatusCreated, resp)
}

// ruleJSON renders a rule with its next firing instant.
func (s *Server) ruleJSON(t *Tenant, info ruleInfo) ruleJSON {
	out := ruleJSON{Name: info.Name, Expr: info.Expr, Fired: info.Fired}
	if at, ok, _, err := s.nextInstant(t, t.Manager().Prepared("", info.Expr), t.System().Now()); err == nil && ok {
		out.Next = t.System().Chron().CivilOf(at).String()
	}
	return out
}

func (s *Server) handleRuleList(w http.ResponseWriter, _ *http.Request, t *Tenant) {
	infos := t.ruleList()
	out := make([]ruleJSON, 0, len(infos))
	for _, info := range infos {
		out = append(out, s.ruleJSON(t, info))
	}
	writeJSON(w, http.StatusOK, map[string]any{"rules": out})
}

func (s *Server) handleRuleGet(w http.ResponseWriter, r *http.Request, t *Tenant) {
	name := r.PathValue("name")
	info, ok := t.ruleByName(name)
	if !ok {
		writeError(w, http.StatusNotFound, ErrorBody{
			Code: ErrNotFound, Message: fmt.Sprintf("no rule %q", name),
		})
		return
	}
	writeJSON(w, http.StatusOK, s.ruleJSON(t, info))
}

func (s *Server) handleRuleDelete(w http.ResponseWriter, r *http.Request, t *Tenant) {
	name := r.PathValue("name")
	if _, ok := t.ruleByName(name); !ok {
		writeError(w, http.StatusNotFound, ErrorBody{
			Code: ErrNotFound, Message: fmt.Sprintf("no rule %q", name),
		})
		return
	}
	if err := t.System().DropRule(t.Name + "/" + name); err != nil {
		writeError(w, http.StatusInternalServerError, ErrorBody{Code: ErrInternal, Message: err.Error()})
		return
	}
	t.forgetRule(name)
	w.WriteHeader(http.StatusNoContent)
}

// --- expand and next -----------------------------------------------------

// expandReq evaluates a calendar over a civil window. Exactly one of Expr
// or Recurrence; From/To are ISO dates.
type expandReq struct {
	Expr       string      `json:"expr,omitempty"`
	Recurrence *Recurrence `json:"recurrence,omitempty"`
	From       string      `json:"from"`
	To         string      `json:"to"`
}

// sourceExpr resolves the expr/recurrence pair every query and rule-PUT
// request carries.
func (s *Server) sourceExpr(w http.ResponseWriter, sys *calsys.System, expr string, rec *Recurrence) (string, bool) {
	if (expr == "") == (rec == nil) {
		writeError(w, http.StatusBadRequest, ErrorBody{
			Code: ErrBadRequest, Message: "exactly one of expr or recurrence must be set",
		})
		return "", false
	}
	if rec != nil {
		src, err := rec.Compile(sys.Chron())
		if err != nil {
			writeSchemaError(w, err)
			return "", false
		}
		return src, true
	}
	return expr, true
}

// window parses and bounds the expansion window.
func (s *Server) window(w http.ResponseWriter, fromStr, toStr string) (from, to chronology.Civil, ok bool) {
	bad := func(field, msg string) {
		writeError(w, http.StatusBadRequest, ErrorBody{Code: ErrBadWindow, Message: msg, Position: field})
	}
	from, err := chronology.ParseCivil(fromStr)
	if err != nil {
		bad("from", fmt.Sprintf("bad date %q: %v", fromStr, err))
		return from, to, false
	}
	to, err = chronology.ParseCivil(toStr)
	if err != nil {
		bad("to", fmt.Sprintf("bad date %q: %v", toStr, err))
		return from, to, false
	}
	if to.Before(from) {
		bad("to", fmt.Sprintf("window end %s precedes start %s", to, from))
		return from, to, false
	}
	if days := to.Rata() - from.Rata(); days > maxWindowDays {
		bad("to", fmt.Sprintf("window of %d days exceeds the %d-day cap", days, maxWindowDays))
		return from, to, false
	}
	return from, to, true
}

func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req expandReq
	if !s.decode(w, r, &req) {
		return
	}
	sys := t.System()
	src, ok := s.sourceExpr(w, sys, req.Expr, req.Recurrence)
	if !ok {
		return
	}
	from, to, ok := s.window(w, req.From, req.To)
	if !ok {
		return
	}
	// Vet before evaluating so undefined references come back positioned.
	p := t.Manager().Prepared("", src)
	if diags := p.Diags(); diags.HasErrors() {
		writeVetError(w, "expression", diags)
		return
	}
	// An expression with a pattern is answered by walking it; anything else
	// is evaluated (and cached) as a calendar.
	var res expandSource
	if pat, ok := p.Pattern(); ok {
		t.Manager().CountPatternExpand()
		l, _ := p.Lowered()
		res = expandSource{g: l.Gran, pat: pat}
	} else {
		cal, err := t.Manager().EvalPrepared(p, src, from, to)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrorBody{Code: ErrBadRequest, Message: err.Error()})
			return
		}
		res = expandSource{g: cal.Granularity(), cal: cal}
	}
	w.Header().Set("Content-Type", "application/json")
	// The encoder commits the 200 with its first flush; an error means the
	// client is gone and there is no one left to tell.
	_ = encodeExpand(r.Context(), w, sys.Chron(), src, res, from, to)
}

// nextReq asks for the first instant after After (ISO date; empty means
// the tenant clock's now) at which the expression or rule fires.
type nextReq struct {
	Expr       string      `json:"expr,omitempty"`
	Recurrence *Recurrence `json:"recurrence,omitempty"`
	Rule       string      `json:"rule,omitempty"`
	After      string      `json:"after,omitempty"`
}

type nextResp struct {
	Expr         string `json:"expr"`
	After        string `json:"after"`
	Next         string `json:"next,omitempty"`
	EpochSeconds int64  `json:"epoch_seconds,omitempty"`
	// Dormant is true when the expression never fires within the search
	// horizon.
	Dormant bool `json:"dormant,omitempty"`
	// SharedPlan reports whether the expression is catalog-independent
	// (reads only basic calendars), so every tenant gets the same answer
	// from the same process-wide lowering.
	SharedPlan bool `json:"shared_plan"`
}

func (s *Server) handleNext(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var req nextReq
	if !s.decode(w, r, &req) {
		return
	}
	sys := t.System()
	var src string
	if req.Rule != "" {
		if req.Expr != "" || req.Recurrence != nil {
			writeError(w, http.StatusBadRequest, ErrorBody{
				Code: ErrBadRequest, Message: "rule cannot be combined with expr or recurrence",
			})
			return
		}
		info, ok := t.ruleByName(req.Rule)
		if !ok {
			writeError(w, http.StatusNotFound, ErrorBody{
				Code: ErrNotFound, Message: fmt.Sprintf("no rule %q", req.Rule),
			})
			return
		}
		src = info.Expr
	} else {
		var ok bool
		if src, ok = s.sourceExpr(w, sys, req.Expr, req.Recurrence); !ok {
			return
		}
	}
	after := sys.Now()
	afterStr := sys.Chron().CivilOf(after).String()
	if req.After != "" {
		c, err := chronology.ParseCivil(req.After)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrorBody{
				Code: ErrBadWindow, Message: fmt.Sprintf("bad date %q: %v", req.After, err), Position: "after",
			})
			return
		}
		after = sys.SecondsOf(c)
		afterStr = c.String()
	}
	p := t.Manager().Prepared("", src)
	if diags := p.Diags(); diags.HasErrors() {
		writeVetError(w, "expression", diags)
		return
	}
	at, ok, shared, err := s.nextInstant(t, p, after)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{Code: ErrBadRequest, Message: err.Error()})
		return
	}
	resp := nextResp{Expr: src, After: afterStr, SharedPlan: shared}
	if !ok {
		resp.Dormant = true
	} else {
		resp.Next = sys.Chron().CivilOf(at).String()
		resp.EpochSeconds = at
	}
	writeJSON(w, http.StatusOK, resp)
}

// nextInstant answers a next-instant query from the source's Prepared entry
// under the tenant's catalog; shared reports a catalog-independent
// expression. One that reads `today` needs the tenant's clock, which the
// entry does not carry: it is answered by a one-shot scheduler.
func (s *Server) nextInstant(t *Tenant, p *caldb.Prepared, after int64) (at int64, ok, shared bool, err error) {
	l, err := p.Lowered()
	if err != nil {
		return 0, false, false, err
	}
	if l.Volatile {
		env := t.Manager().Env()
		env.Now = t.System().Clock().Now
		at, ok, err = plan.NextInstant(env, l.Expr, l.Gran, after, 0)
	} else {
		at, ok, err = p.NextAfter(after, 0)
	}
	return at, ok, l.BasicOnly, err
}
