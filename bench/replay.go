package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"calsys"
	"calsys/internal/chronology"
	"calsys/internal/core/callang"
	calvet "calsys/internal/core/callang/vet"
	"calsys/internal/core/matcache"
	"calsys/internal/core/plan"
	"calsys/internal/serve"
)

// The traced run replays the head of each stream in-process, single
// goroutine, over four identically provisioned servers. Each request runs
// three times back to back, so that machine drift hits all three alike:
//
//	A  through serve.Server.Handler().ServeHTTP — the reference total;
//	B  through a replica of the handlers built from the layers' public
//	   functions, one span per call;
//	C  through the same replica with tracing off (the overhead baseline).
//
// The replica's output must equal the handler's byte for byte, which is the
// evidence that it walks the same path. Server D then follows the same
// operations to take the isolated single-function measurements. The servers
// use different tenant names, hence different cache scopes: none warms the
// cache for another, though all share its byte budget.

// replayBudget bounds the wall time of the A/B/C loop.
const replayBudget = 6 * time.Second

// inproc is one in-process server with the workload's tenants.
type inproc struct {
	srv     *serve.Server
	handler http.Handler
	prefix  string // tenant name prefix: keeps the servers' cache scopes apart
	tenants []*serve.Tenant
}

func (p *inproc) tenantName(w *workload, t int) string { return p.prefix + w.tenants[t] }

// serveHTTP runs one call through the root handler.
func (p *inproc) serveHTTP(method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+adminToken)
	rec := httptest.NewRecorder()
	p.handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func newInproc(w *workload, prefix string) (*inproc, error) {
	today, err := chronology.ParseCivil(todayStr)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{AdminToken: adminToken, Today: today})
	if err != nil {
		return nil, err
	}
	p := &inproc{srv: srv, handler: srv.Handler(), prefix: prefix}
	for t := range w.tenants {
		name := p.tenantName(w, t)
		body, _ := json.Marshal(map[string]string{"name": name})
		if status, resp := p.serveHTTP("POST", "/v1/tenants", body); status != http.StatusCreated {
			return nil, fmt.Errorf("in-process tenant %s: status %d: %s", name, status, resp)
		}
		for i := range w.provision[t] {
			o := &w.provision[t][i]
			m, path, b := o.wire(name)
			if status, resp := p.serveHTTP(m, path, b); status != o.status {
				return nil, fmt.Errorf("in-process %s %s: status %d: %s", m, path, status, resp)
			}
		}
		ten, _ := srv.Registry().Get(name)
		p.tenants = append(p.tenants, ten)
	}
	return p, nil
}

// replayResult carries the per-layer numbers of the traced run.
type replayResult struct {
	spans     []span
	attempted int
	fails     []string

	handlerUs    []float64 // expand requests, through the handler
	respBytes    []float64
	intervals    []float64
	evalHitUs    []float64
	evalMissUs   []float64
	tracedNs     int64 // sum of replica request times, traced
	untracedNs   int64
	iso          map[string][]float64 // isolated measurements, microseconds
	expandStages map[string][]float64 // replica spans of expand requests, zero-filled per request
}

// replica re-implements the handlers from public layer functions.
type replica struct {
	p     *inproc
	share *serve.PlanShare
	tr    *tracer
	rules []map[string]string // per tenant: rule name -> expression
	res   *replayResult
}

func newReplica(p *inproc, tr *tracer, res *replayResult) (*replica, error) {
	share, err := serve.NewPlanShare()
	if err != nil {
		return nil, err
	}
	r := &replica{p: p, share: share, tr: tr, res: res}
	for range p.tenants {
		r.rules = append(r.rules, map[string]string{})
	}
	return r, nil
}

// encode renders a response the way the server's writeJSON does.
func encode(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

// decode mirrors Server.decode for well-formed bodies.
func decode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// The wire structs below repeat the server's unexported ones field for
// field; encoding/json output depends only on field order, names and tags.
type expandReq struct {
	Expr       string            `json:"expr,omitempty"`
	Recurrence *serve.Recurrence `json:"recurrence,omitempty"`
	From       string            `json:"from"`
	To         string            `json:"to"`
}

type expandResp struct {
	Expr        string         `json:"expr"`
	Granularity string         `json:"granularity"`
	Count       int            `json:"count"`
	Intervals   []intervalJSON `json:"intervals"`
}

type nextReq struct {
	Expr       string            `json:"expr,omitempty"`
	Recurrence *serve.Recurrence `json:"recurrence,omitempty"`
	Rule       string            `json:"rule,omitempty"`
	After      string            `json:"after,omitempty"`
}

type nextResp struct {
	Expr         string `json:"expr"`
	After        string `json:"after"`
	Next         string `json:"next,omitempty"`
	EpochSeconds int64  `json:"epoch_seconds,omitempty"`
	Dormant      bool   `json:"dormant,omitempty"`
	SharedPlan   bool   `json:"shared_plan"`
}

type calendarPutReq struct {
	Derivation string            `json:"derivation,omitempty"`
	Recurrence *serve.Recurrence `json:"recurrence,omitempty"`
	Days       []string          `json:"days,omitempty"`
}

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
		Name: e.Name, Derivation: e.Derivation, EvalPlan: e.EvalPlan,
		Granularity: e.Gran.String(), Lifespan: e.Lifespan.String(),
		Stored: e.Values != nil, Warnings: e.Warnings,
	}
}

type rulePutReq struct {
	Expr       string            `json:"expr,omitempty"`
	Recurrence *serve.Recurrence `json:"recurrence,omitempty"`
}

type ruleJSON struct {
	Name        string             `json:"name"`
	Expr        string             `json:"expr"`
	Fired       int64              `json:"fired"`
	Next        string             `json:"next,omitempty"`
	Diagnostics []serve.Diagnostic `json:"diagnostics,omitempty"`
}

func wireDiags(diags calvet.Diags) []serve.Diagnostic {
	out := make([]serve.Diagnostic, 0, len(diags))
	for _, d := range diags {
		jd := serve.Diagnostic{Code: d.Code, Severity: d.Severity.String(), Message: d.Msg}
		if p := d.Pos; p.Line != 0 || p.Col != 0 {
			jd.Position = p.String()
		}
		out = append(out, jd)
	}
	return out
}

// timed runs fn inside a span.
func (r *replica) timed(name string, parent, req int, fn func()) {
	sp := r.tr.begin(name, parent, req)
	fn()
	r.tr.end(sp)
}

// nextInstant mirrors Server.nextInstant.
func (r *replica) nextInstant(t *serve.Tenant, src string, after int64, parent, req int) (at int64, ok bool, err error) {
	var e callang.Expr
	r.timed("callang.parse", parent, req, func() { e, err = callang.ParseExpr(src) })
	if err != nil {
		return 0, false, err
	}
	var sched *plan.Scheduler
	var shared bool
	r.timed("serve.share_lookup", parent, req, func() { sched, shared, err = r.share.SchedulerFor(e) })
	if err == nil && shared {
		r.timed("plan.sched_next", parent, req, func() { at, ok, err = sched.NextAfter(after) })
		return at, ok, err
	}
	sys := t.System()
	env := t.Manager().Env()
	env.Now = sys.Clock().Now
	r.timed("plan.next_instant", parent, req, func() {
		var prepped callang.Expr
		var gran chronology.Granularity
		if prepped, gran, err = plan.Prepare(env, e, nil); err == nil {
			at, ok, err = plan.NextInstant(env, prepped, gran, after, 0)
		}
	})
	return at, ok, err
}

// do performs one operation the way its handler would and returns the status
// and body the handler would write.
func (r *replica) do(e *entry, req int) (int, []byte, error) {
	o := &e.op
	t := r.p.tenants[o.tenant]
	sys, mgr := t.System(), t.Manager()
	root := r.tr.begin("replica."+classNames[o.class()], -1, req)
	defer r.tr.end(root)
	switch o.kind {
	case opExpand:
		var q expandReq
		var err error
		r.timed("serve.decode", root, req, func() { err = decode(e.body, &q) })
		if err != nil {
			return 0, nil, err
		}
		src := q.Expr
		if q.Recurrence != nil {
			r.timed("serve.recur_compile", root, req, func() { src, err = q.Recurrence.Compile(sys.Chron()) })
			if err != nil {
				return 0, nil, err
			}
		}
		from, err := chronology.ParseCivil(q.From)
		if err != nil {
			return 0, nil, err
		}
		to, err := chronology.ParseCivil(q.To)
		if err != nil {
			return 0, nil, err
		}
		var diags calvet.Diags
		r.timed("vet.vet", root, req, func() { diags = mgr.Vet("", src) })
		if diags.HasErrors() {
			return 0, nil, fmt.Errorf("%q does not vet: %v", src, diags)
		}
		var cal *calsys.Calendar
		before := sys.MatStats()
		t0 := time.Now()
		r.timed("caldb.eval", root, req, func() { cal, err = sys.EvalCalendar(src, from, to) })
		evalUs := float64(time.Since(t0)) / 1e3
		if err != nil {
			return 0, nil, err
		}
		if r.tr != nil {
			if sys.MatStats().Misses == before.Misses {
				r.res.evalHitUs = append(r.res.evalHitUs, evalUs)
			} else {
				r.res.evalMissUs = append(r.res.evalMissUs, evalUs)
			}
		}
		var flat *calsys.Calendar
		r.timed("calendar.flatten", root, req, func() { flat = cal.Flatten() })
		resp := expandResp{Expr: src, Granularity: cal.Granularity().String()}
		r.timed("chronology.format", root, req, func() { resp.Intervals = clippedIntervals(sys, flat, from, to) })
		resp.Count = len(resp.Intervals)
		var out []byte
		r.timed("serve.encode", root, req, func() { out = encode(resp) })
		if r.tr != nil {
			r.res.intervals = append(r.res.intervals, float64(resp.Count))
		}
		return http.StatusOK, out, nil

	case opNext:
		var q nextReq
		var err error
		r.timed("serve.decode", root, req, func() { err = decode(e.body, &q) })
		if err != nil {
			return 0, nil, err
		}
		src := q.Expr
		switch {
		case q.Rule != "":
			s, ok := r.rules[o.tenant][strings.ToLower(q.Rule)]
			if !ok {
				return 0, nil, fmt.Errorf("no rule %q", q.Rule)
			}
			src = s
		case q.Recurrence != nil:
			r.timed("serve.recur_compile", root, req, func() { src, err = q.Recurrence.Compile(sys.Chron()) })
			if err != nil {
				return 0, nil, err
			}
		}
		after := sys.Now()
		afterStr := sys.Chron().CivilOf(after).String()
		if q.After != "" {
			c, err := chronology.ParseCivil(q.After)
			if err != nil {
				return 0, nil, err
			}
			after, afterStr = sys.SecondsOf(c), c.String()
		}
		var diags calvet.Diags
		r.timed("vet.vet", root, req, func() { diags = mgr.Vet("", src) })
		if diags.HasErrors() {
			return 0, nil, fmt.Errorf("%q does not vet: %v", src, diags)
		}
		at, ok, err := r.nextInstant(t, src, after, root, req)
		if err != nil {
			return 0, nil, err
		}
		resp := nextResp{Expr: src, After: afterStr}
		r.timed("callang.parse", root, req, func() {
			pe, err := callang.ParseExpr(src)
			resp.SharedPlan = err == nil && serve.Shareable(pe)
		})
		if !ok {
			resp.Dormant = true
		} else {
			resp.Next, resp.EpochSeconds = sys.Chron().CivilOf(at).String(), at
		}
		var out []byte
		r.timed("serve.encode", root, req, func() { out = encode(resp) })
		return http.StatusOK, out, nil

	case opGetCal:
		ent, ok := mgr.Lookup(o.name)
		if !ok {
			return 0, nil, fmt.Errorf("no calendar %q", o.name)
		}
		var out []byte
		r.timed("serve.encode", root, req, func() { out = encode(entryJSON(ent)) })
		return http.StatusOK, out, nil

	case opPutDays, opPutDerived:
		var q calendarPutReq
		var err error
		r.timed("serve.decode", root, req, func() { err = decode(e.body, &q) })
		if err != nil {
			return 0, nil, err
		}
		if len(q.Days) > 0 {
			cal, err := pointCalendar(sys, q.Days)
			if err != nil {
				return 0, nil, err
			}
			_, replaced := mgr.Lookup(o.name)
			if replaced {
				r.timed("caldb.replace", root, req, func() { err = sys.ReplaceStoredCalendar(o.name, cal) })
			} else {
				r.timed("caldb.define", root, req, func() { err = sys.DefineStoredCalendar(o.name, cal) })
			}
			if err != nil {
				return 0, nil, err
			}
			ent, _ := mgr.Lookup(o.name)
			resp := entryJSON(ent)
			resp.Replaced = replaced
			status := http.StatusCreated
			if replaced {
				status = http.StatusOK
			}
			var out []byte
			r.timed("serve.encode", root, req, func() { out = encode(resp) })
			return status, out, nil
		}
		var diags calvet.Diags
		r.timed("vet.vet", root, req, func() { diags = mgr.Vet(o.name, q.Derivation) })
		if diags.HasErrors() {
			return 0, nil, fmt.Errorf("%q does not vet: %v", q.Derivation, diags)
		}
		r.timed("caldb.define", root, req, func() { err = sys.DefineCalendar(o.name, q.Derivation, calsys.GranAuto) })
		if err != nil {
			return 0, nil, err
		}
		ent, _ := mgr.Lookup(o.name)
		var out []byte
		r.timed("serve.encode", root, req, func() { out = encode(entryJSON(ent)) })
		return http.StatusCreated, out, nil

	case opDelCal:
		var err error
		r.timed("caldb.drop", root, req, func() { err = sys.DropCalendar(o.name) })
		return http.StatusNoContent, nil, err

	case opPutRule:
		var q rulePutReq
		var err error
		r.timed("serve.decode", root, req, func() { err = decode(e.body, &q) })
		if err != nil {
			return 0, nil, err
		}
		src := q.Expr
		if q.Recurrence != nil {
			r.timed("serve.recur_compile", root, req, func() { src, err = q.Recurrence.Compile(sys.Chron()) })
			if err != nil {
				return 0, nil, err
			}
		}
		var diags calvet.Diags
		r.timed("vet.vet", root, req, func() { diags = mgr.Vet("", src) })
		if diags.HasErrors() {
			return 0, nil, fmt.Errorf("%q does not vet: %v", src, diags)
		}
		r.timed("rules.define_rule", root, req, func() {
			err = sys.OnCalendar(t.Name+"/"+o.name, src, func(*calsys.Txn, int64) error { return nil })
		})
		if err != nil {
			return 0, nil, err
		}
		r.rules[o.tenant][strings.ToLower(o.name)] = src
		resp := ruleJSON{Name: o.name, Expr: src}
		if at, ok, err := r.nextInstant(t, src, sys.Now(), root, req); err == nil && ok {
			resp.Next = sys.Chron().CivilOf(at).String()
		}
		if warns := diags.Warnings(); len(warns) > 0 {
			resp.Diagnostics = wireDiags(warns)
		}
		var out []byte
		r.timed("serve.encode", root, req, func() { out = encode(resp) })
		return http.StatusCreated, out, nil

	case opDelRule:
		var err error
		r.timed("rules.drop_rule", root, req, func() { err = sys.DropRule(t.Name + "/" + o.name) })
		delete(r.rules[o.tenant], strings.ToLower(o.name))
		return http.StatusNoContent, nil, err
	}
	return 0, nil, fmt.Errorf("unknown operation kind %d", o.kind)
}

// isolate times single layer functions on the operation's expression and
// window, outside any request: a parse, a prepare, a compile and a cold
// execution against a private empty cache, and for next-instant queries a
// scheduler build and a warm NextAfter.
func (r *replica) isolate(e *entry) {
	o := &e.op
	if o.kind != opExpand && o.kind != opNext {
		return
	}
	t := r.p.tenants[o.tenant]
	sys := t.System()
	src := o.expr
	if o.kind == opNext && o.name != "" {
		src = r.rules[o.tenant][strings.ToLower(o.name)]
	} else if o.rec != nil {
		var err error
		if src, err = o.rec.Compile(sys.Chron()); err != nil {
			return
		}
	}
	iso := r.res.iso
	us := func(name string, t0 time.Time) { iso[name] = append(iso[name], float64(time.Since(t0))/1e3) }

	t0 := time.Now()
	expr, err := callang.ParseExpr(src)
	us("callang.parse", t0)
	if err != nil {
		return
	}
	env := t.Manager().Env()
	env.Now = sys.Clock().Now
	env.Mat = matcache.New(0)
	t0 = time.Now()
	prepped, gran, err := plan.Prepare(env, expr, nil)
	us("plan.prepare", t0)
	if err != nil {
		return
	}
	if o.kind == opNext {
		after := sys.Now()
		if o.from != "" {
			if c, err := chronology.ParseCivil(o.from); err == nil {
				after = sys.SecondsOf(c)
			}
		}
		t0 = time.Now()
		sched := plan.NewScheduler(env, prepped, gran)
		_, _, err := sched.NextAfter(after)
		us("plan.sched_build", t0)
		if err != nil {
			return
		}
		t0 = time.Now()
		_, _, _ = sched.NextAfter(after)
		us("plan.sched_next", t0)
		return
	}
	from, err1 := chronology.ParseCivil(o.from)
	to, err2 := chronology.ParseCivil(o.to)
	if err1 != nil || err2 != nil {
		return
	}
	win, err := plan.CivilWindow(env.Chron, gran, from, to)
	if err != nil {
		return
	}
	t0 = time.Now()
	p, err := plan.Compile(env, prepped, nil, gran, win)
	us("plan.compile", t0)
	if err != nil {
		return
	}
	t0 = time.Now()
	_, _ = p.Exec(env, nil)
	us("plan.exec", t0)
}

// replay runs the head of each stream through the handler and the replica.
func replay(w *workload) (*replayResult, error) {
	res := &replayResult{iso: map[string][]float64{}, expandStages: map[string][]float64{}}
	// The streams are interleaved: their tenants are disjoint, so the order
	// between them does not matter, and a truncated replay keeps both.
	var head []*entry
	for i := 0; i < w.replayN; i++ {
		for c := range w.streams {
			if i < len(w.streams[c]) {
				head = append(head, w.entries[w.streams[c][i]])
			}
		}
	}
	fail := func(format string, args ...any) { res.fails = append(res.fails, fmt.Sprintf(format, args...)) }

	// Four servers, one per way of running a request.
	matcache.Shared().Reset()
	tr := newTracer()
	var servers [4]*inproc
	var replicas [4]*replica
	for k, prefix := range []string{"a-", "b-", "c-", "d-"} {
		p, err := newInproc(w, prefix)
		if err != nil {
			return nil, err
		}
		servers[k] = p
		if k == 0 {
			continue
		}
		var t *tracer
		if k == 1 {
			t = tr
		}
		if replicas[k], err = newReplica(p, t, res); err != nil {
			return nil, err
		}
		if err := replicas[k].adoptProvisionedRules(w); err != nil {
			return nil, err
		}
	}
	a, rb, rc, rd := servers[0], replicas[1], replicas[2], replicas[3]

	start := time.Now()
	for i, e := range head {
		if time.Since(start) > replayBudget {
			head = head[:i] // a slow workload replays fewer requests
			break
		}
		_, path, _ := e.op.wire(a.tenantName(w, e.op.tenant))
		t0 := time.Now()
		status, body := a.serveHTTP(e.method, path, e.body)
		us := float64(time.Since(t0)) / 1e3
		res.attempted++
		if status != e.op.status {
			fail("replay: handler %s %s: status %d, want %d", e.method, path, status, e.op.status)
		} else if err := e.want.matches(e.op.kind, body); err != nil {
			fail("replay: handler %s %s: %v", e.method, path, err)
		}
		if e.op.kind == opExpand {
			res.handlerUs = append(res.handlerUs, us)
			res.respBytes = append(res.respBytes, float64(len(body)))
		}

		t0 = time.Now()
		rstatus, rbody, err := rb.do(e, i)
		res.tracedNs += int64(time.Since(t0))
		res.attempted++
		switch {
		case err != nil:
			fail("replay: replica %s %s: %v", e.method, e.path, err)
		case rstatus != status || !bytes.Equal(rbody, body):
			fail("replay: replica %s %s %s: output differs from the handler's", e.method, e.path, e.body)
		}

		t0 = time.Now()
		_, _, err = rc.do(e, i)
		res.untracedNs += int64(time.Since(t0))
		if err != nil {
			fail("replay: untraced replica %s %s: %v", e.method, e.path, err)
		}
	}
	res.spans = tr.spans

	// The isolated measurements need the catalog as it stood at each request,
	// so they follow the same operations on a server of their own.
	for i, e := range head {
		if _, _, err := rd.do(e, i); err != nil {
			fail("replay: %s %s: %v", e.method, e.path, err)
		}
		rd.isolate(e)
	}
	matcache.Shared().Reset()

	// Stage durations of expand requests, one value per request and stage
	// (zero when the stage did not run), so stage medians are comparable
	// with the handler median.
	expandReq := map[int]bool{}
	for _, s := range res.spans {
		if s.Name == "replica.expand" {
			expandReq[s.Req] = true
		}
	}
	perReq := map[string]map[int]float64{}
	for _, s := range res.spans {
		if s.Parent < 0 || !expandReq[s.Req] {
			continue
		}
		if perReq[s.Name] == nil {
			perReq[s.Name] = map[int]float64{}
		}
		perReq[s.Name][s.Req] += float64(s.End-s.Start) / 1e3
	}
	for name, m := range perReq {
		vals := make([]float64, 0, len(expandReq))
		for req := range expandReq {
			vals = append(vals, m[req])
		}
		res.expandStages[name] = vals
	}
	return res, nil
}

// adoptProvisionedRules records the rules the provisioning defined through
// the handler, whose bookkeeping the replica cannot read.
func (r *replica) adoptProvisionedRules(w *workload) error {
	for t := range w.provision {
		for i := range w.provision[t] {
			o := &w.provision[t][i]
			if o.kind != opPutRule {
				continue
			}
			src := o.expr
			if o.rec != nil {
				var err error
				if src, err = o.rec.Compile(r.p.tenants[t].System().Chron()); err != nil {
					return err
				}
			}
			r.rules[t][strings.ToLower(o.name)] = src
		}
	}
	return nil
}
