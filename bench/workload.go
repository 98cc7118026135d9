package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"

	"calsys/internal/chronology"
	"calsys/internal/serve"
)

// The fixed environment of every serving workload.
const (
	adminToken = "calbench-admin"
	todayStr   = "1993-01-01"
	nConns     = 2 // closed-loop connections; the machine has two cores
)

// opClass groups operations for the per-class latency diagnostics.
type opClass uint8

const (
	clsExpand opClass = iota
	clsNext
	clsRead
	clsWrite
	nClasses
)

var classNames = [nClasses]string{"expand", "next", "read", "write"}

type opKind uint8

const (
	opExpand opKind = iota
	opNext
	opGetCal
	opPutDays
	opPutDerived
	opDelCal
	opPutRule
	opDelRule
)

// op is one API call in structured form: the load generator renders it to
// HTTP bytes, the oracle and the in-process replica read its fields.
type op struct {
	kind   opKind
	tenant int
	name   string            // calendar or rule name; the rule of a next-by-rule
	expr   string            // expression, derivation or rule expression
	rec    *serve.Recurrence // recurrence form of expr, when set
	from   string            // window start, or the "after" of a next
	to     string
	days   []string
	status int // expected HTTP status
}

func (o *op) class() opClass {
	switch o.kind {
	case opExpand:
		return clsExpand
	case opNext:
		return clsNext
	case opGetCal:
		return clsRead
	}
	return clsWrite
}

// wire returns the method, path and JSON body of the call.
func (o *op) wire(tenant string) (method, path string, body []byte) {
	base := "/v1/tenants/" + tenant
	var v any
	switch o.kind {
	case opExpand:
		method, path = "POST", base+"/expand"
		m := map[string]any{"from": o.from, "to": o.to}
		if o.rec != nil {
			m["recurrence"] = o.rec
		} else {
			m["expr"] = o.expr
		}
		v = m
	case opNext:
		method, path = "POST", base+"/next"
		m := map[string]any{}
		switch {
		case o.name != "":
			m["rule"] = o.name
		case o.rec != nil:
			m["recurrence"] = o.rec
		default:
			m["expr"] = o.expr
		}
		if o.from != "" {
			m["after"] = o.from
		}
		v = m
	case opGetCal:
		return "GET", base + "/calendars/" + o.name, nil
	case opPutDays:
		method, path, v = "PUT", base+"/calendars/"+o.name, map[string]any{"days": o.days}
	case opPutDerived:
		method, path, v = "PUT", base+"/calendars/"+o.name, map[string]any{"derivation": o.expr}
	case opDelCal:
		return "DELETE", base + "/calendars/" + o.name, nil
	case opPutRule:
		method, path = "PUT", base+"/rules/"+o.name
		if o.rec != nil {
			v = map[string]any{"recurrence": o.rec}
		} else {
			v = map[string]any{"expr": o.expr}
		}
	case opDelRule:
		return "DELETE", base + "/rules/" + o.name, nil
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and a plain struct always marshal
	}
	return method, path, body
}

// entry is one distinct (operation, catalog state) pair of a workload: the
// rendered request, what the oracle expects back, and — once the first
// response has been checked against the oracle — the checksum every later
// response for it must repeat. Tenants are partitioned between connections,
// so an entry is only ever touched by one goroutine.
type entry struct {
	op     op
	method string
	path   string
	body   []byte
	raw    []byte // the whole HTTP/1.1 request
	want   expectation

	seen bool
	sum  uint64
	size int
}

// workload is the generated input of one serving run.
type workload struct {
	name      string
	tenants   []string
	provision [][]op // per tenant, applied in order after tenant creation
	entries   []*entry
	streams   [nConns][]int32 // per connection: indices into entries
	warm      [nConns][]int32 // per connection: each entry of a read-only workload once
	coldN     int             // requests per connection that end set-up
	replayN   int             // requests per connection the traced run replays
}

// owner is the connection that drives tenant t.
func owner(t int) int { return t % nConns }

// builder accumulates a workload, evaluating each new entry through the
// oracle twin of its tenant.
type builder struct {
	w     *workload
	twins []*twin
	index map[string]int32
	rng   *rand.Rand
}

func newBuilder(name string, seed int64, tenants int) (*builder, error) {
	b := &builder{
		w:     &workload{name: name, coldN: 128, replayN: 2000},
		index: map[string]int32{},
		rng:   rand.New(rand.NewSource(seed)),
	}
	for i := 0; i < tenants; i++ {
		b.w.tenants = append(b.w.tenants, fmt.Sprintf("t%03d", i))
		tw, err := newTwin(i)
		if err != nil {
			return nil, err
		}
		b.twins = append(b.twins, tw)
	}
	b.w.provision = make([][]op, tenants)
	return b, nil
}

// provision records a set-up operation and applies it to the twin.
func (b *builder) provision(o op) error {
	b.w.provision[o.tenant] = append(b.w.provision[o.tenant], o)
	return b.twins[o.tenant].apply(&o)
}

// entryFor returns the index of the entry for the operation under the given
// catalog state, creating it — and asking the oracle what to expect — on
// first sight. state distinguishes the states under which the same call has
// different answers.
func (b *builder) entryFor(o op, state string) (int32, error) {
	key := fmt.Sprintf("%d|%d|%s|%s|%p|%s|%s|%s", o.kind, o.tenant, o.name, o.expr, o.rec, o.from, o.to, state)
	if idx, ok := b.index[key]; ok {
		return idx, nil
	}
	method, path, body := o.wire(b.w.tenants[o.tenant])
	want, err := b.twins[o.tenant].expect(&o)
	if err != nil {
		return 0, fmt.Errorf("%s: oracle for %s %s %s: %w", b.w.name, method, path, body, err)
	}
	e := &entry{op: o, method: method, path: path, body: body, want: want}
	e.raw = renderRequest(method, path, body)
	idx := int32(len(b.w.entries))
	b.w.entries = append(b.w.entries, e)
	b.index[key] = idx
	return idx, nil
}

// push appends an entry to its owner's stream.
func (b *builder) push(idx int32) {
	c := owner(b.w.entries[idx].op.tenant)
	b.w.streams[c] = append(b.w.streams[c], idx)
}

// renderRequest lays out one keep-alive HTTP/1.1 request.
func renderRequest(method, path string, body []byte) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s HTTP/1.1\r\nHost: calserved\r\nAuthorization: Bearer %s\r\n", method, path, adminToken)
	if body != nil {
		fmt.Fprintf(&sb, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	sb.WriteString("\r\n")
	return append([]byte(sb.String()), body...)
}

// holidays returns perYear distinct weekdays of every year in [y0, y1], as
// sorted ISO dates.
func holidays(rng *rand.Rand, y0, y1, perYear int) []string {
	var out []string
	for y := y0; y <= y1; y++ {
		seen := map[int]bool{}
		for len(seen) < perYear {
			m, d := 1+rng.Intn(12), 1+rng.Intn(28)
			if (chronology.Civil{Year: y, Month: m, Day: d}).Weekday() >= chronology.Saturday || seen[m*100+d] {
				continue
			}
			seen[m*100+d] = true
			out = append(out, fmt.Sprintf("%04d-%02d-%02d", y, m, d))
		}
	}
	sort.Strings(out)
	return out
}

// bizdaysScript derives business days from the tenant's stored holidays. It
// is a script, not a single expression, on purpose: single-expression
// derivations are inlined into the calling expression and never materialised
// on their own, whereas a script derivation is materialised per window as a
// D| cache entry of ~16 bytes per business day. Those entries are what gives
// serve_wide a working set larger than the cache.
const bizdaysScript = "{wd = [1,2,3,4,5]/DAYS:during:WEEKS; return (wd - holidays);}"

func years(y0, y1 int) (from, to string) {
	return fmt.Sprintf("%04d-01-01", y0), fmt.Sprintf("%04d-12-31", y1)
}

// hotRecurrences are the kazoo-style recurrences of serve_hot; none yields
// more than 53 instants a year.
var hotRecurrences = []serve.Recurrence{
	{Cycle: "monthly", Ordinal: "third", WDays: []string{"friday"}},
	{Cycle: "monthly", Ordinal: "first", WDays: []string{"monday"}},
	{Cycle: "monthly", Ordinal: "last", WDays: []string{"friday"}},
	{Cycle: "monthly", Ordinal: "second", WDays: []string{"tuesday"}},
	{Cycle: "monthly", Days: []int{1}},
	{Cycle: "monthly", Days: []int{15}},
	{Cycle: "monthly", Days: []int{-1}},
	{Cycle: "monthly", Days: []int{1, 15}},
	{Cycle: "yearly", Month: 7, Days: []int{4}},
	{Cycle: "yearly", Month: 12, Days: []int{25}},
	{Cycle: "yearly", Month: 1, Days: []int{1}},
	{Cycle: "yearly", Month: 11, Ordinal: "fourth", WDays: []string{"thursday"}},
	{Cycle: "yearly", Month: 5, Ordinal: "last", WDays: []string{"monday"}},
	{Cycle: "weekly", WDays: []string{"monday"}},
	{Cycle: "weekly", WDays: []string{"friday"}},
	{Cycle: "weekly", WDays: []string{"sunday"}},
}

// pick is a weighted choice among entry lists: the request mix of a
// read-only workload.
type pick struct {
	weight  int
	entries []int32
}

// fill draws n requests per connection from the mix.
func (b *builder) fill(n int, mix []pick) {
	total := 0
	for _, p := range mix {
		total += p.weight
	}
	for idx, e := range b.w.entries {
		c := owner(e.op.tenant)
		b.w.warm[c] = append(b.w.warm[c], int32(idx))
	}
	for i := 0; i < n*nConns; i++ {
		r := b.rng.Intn(total)
		for _, p := range mix {
			if r < p.weight {
				b.push(p.entries[b.rng.Intn(len(p.entries))])
				break
			}
			r -= p.weight
		}
	}
}

// buildHot: 4 tenants, 16 recurrences and 4 stored rules each, 1-year
// expansions and next-instant queries; everything is cache-resident after
// the first pass.
func buildHot(seed int64, n int, small bool) (*workload, error) {
	const rulesPer = 4
	tenants := 4
	if small {
		tenants = 2
	}
	b, err := newBuilder("serve_hot", seed, tenants)
	if err != nil {
		return nil, err
	}
	afters := []string{"", "1993-06-01", "1994-02-15", "1995-11-30"}
	var byRec, byExpr, nextRec, nextRule []int32
	collect := func(list *[]int32, o op) error {
		o.status = http.StatusOK
		idx, err := b.entryFor(o, "")
		*list = append(*list, idx)
		return err
	}
	for t := 0; t < tenants; t++ {
		for r := 0; r < rulesPer; r++ {
			rec := &hotRecurrences[(t*rulesPer+r)%len(hotRecurrences)]
			if err := b.provision(op{kind: opPutRule, tenant: t, name: fmt.Sprintf("rule%d", r), rec: rec, status: http.StatusCreated}); err != nil {
				return nil, err
			}
			for _, after := range afters[1:] {
				if err := collect(&nextRule, op{kind: opNext, tenant: t, name: fmt.Sprintf("rule%d", r), from: after}); err != nil {
					return nil, err
				}
			}
		}
		for i := range hotRecurrences {
			rec := &hotRecurrences[i]
			src, err := rec.Compile(b.twins[t].sys.Chron())
			if err != nil {
				return nil, err
			}
			for y := 1993; y < 1997; y++ {
				from, to := years(y, y)
				if err := collect(&byRec, op{kind: opExpand, tenant: t, rec: rec, from: from, to: to}); err != nil {
					return nil, err
				}
				if err := collect(&byExpr, op{kind: opExpand, tenant: t, expr: src, from: from, to: to}); err != nil {
					return nil, err
				}
			}
			for _, after := range afters {
				if err := collect(&nextRec, op{kind: opNext, tenant: t, rec: rec, from: after}); err != nil {
					return nil, err
				}
			}
		}
	}
	b.fill(n, []pick{{60, byRec}, {10, byExpr}, {20, nextRec}, {10, nextRule}})
	return b.w, nil
}

// seedCatalog gives a tenant its seeded stored holidays over [y0, y1] and
// the derived bizdays.
func (b *builder) seedCatalog(t, y0, y1 int) error {
	days := holidays(b.rng, y0, y1, 10)
	if err := b.provision(op{kind: opPutDays, tenant: t, name: "holidays", days: days, status: http.StatusCreated}); err != nil {
		return err
	}
	return b.provision(op{kind: opPutDerived, tenant: t, name: "bizdays", expr: bizdaysScript, status: http.StatusCreated})
}

// wideExprs are selective: decades of business days in, a few hundred
// intervals out.
var wideExprs = []string{
	"[n]/bizdays:during:MONTHS", // the paper's last trading day of the month
	"[1]/bizdays:during:MONTHS",
	"[n]/bizdays:during:caloperate(MONTHS, 3)",
	"[1]/(([5]/DAYS:during:WEEKS) - holidays):during:MONTHS",
	"bizdays:intersects:([1]/WEEKS:overlaps:MONTHS)",
}

const (
	wideTenants = 64
	wideWindows = 15 // 35-year windows starting 1990..2004: none contains another
)

// buildWide: many tenants, each with its own aperiodic holidays; every
// (tenant, window) needs its own ~140 KB bizdays materialisation, and
// tenants x windows of them do not fit the 64 MiB cache.
func buildWide(seed int64, n int, small bool) (*workload, error) {
	tenants, windows := wideTenants, wideWindows
	if small {
		tenants, windows = 4, 2
	}
	b, err := newBuilder("serve_wide", seed, tenants)
	if err != nil {
		return nil, err
	}
	b.w.replayN = 600
	var all []int32
	for t := 0; t < tenants; t++ {
		if err := b.seedCatalog(t, 1990, 2039); err != nil {
			return nil, err
		}
		// The oracle walks the keys window by window, so that it
		// materialises each window's bizdays once.
		for y := 1990; y < 1990+windows; y++ {
			from, to := years(y, y+34)
			for _, expr := range wideExprs {
				idx, err := b.entryFor(op{kind: opExpand, tenant: t, expr: expr, from: from, to: to, status: http.StatusOK}, "")
				if err != nil {
					return nil, err
				}
				all = append(all, idx)
			}
		}
	}
	b.fill(n, []pick{{1, all}})
	return b.w, nil
}

// buildBulk: few keys, all resident, thousands of intervals per response.
func buildBulk(seed int64, n int, small bool) (*workload, error) {
	const tenants = 2
	b, err := newBuilder("serve_bulk", seed, tenants)
	if err != nil {
		return nil, err
	}
	b.w.coldN, b.w.replayN = 24, 150
	starts, lengths := 3, []int{10, 16, 22, 28}
	if small {
		starts, lengths = 1, []int{4}
	}
	var all []int32
	for t := 0; t < tenants; t++ {
		if err := b.seedCatalog(t, 1990, 2029); err != nil {
			return nil, err
		}
		for _, expr := range []string{"DAYS:during:WEEKS", "DAYS:during:MONTHS", "bizdays"} {
			for y := 1990; y < 1990+starts; y++ {
				for _, length := range lengths {
					from, to := years(y, y+length-1)
					idx, err := b.entryFor(op{kind: opExpand, tenant: t, expr: expr, from: from, to: to, status: http.StatusOK}, "")
					if err != nil {
						return nil, err
					}
					all = append(all, idx)
				}
			}
		}
	}
	b.fill(n, []pick{{1, all}})
	return b.w, nil
}

// churnState is the part of a tenant's catalog the churn writes change.
type churnState struct {
	hol     int  // which holiday variant is stored
	scratch bool // derived calendar "scratch" exists
	tmp     bool // rule "tmp" exists
}

// churnStream caps the churn stream: every write is also applied to the
// oracle twin, which makes this stream the expensive one to generate. It
// covers the run at six times the rate measured when the benchmark was
// written.
const churnStream = 100_000

// buildChurn: a quarter of the operations are writes that invalidate what
// the reads depend on.
func buildChurn(seed int64, n int, small bool) (*workload, error) {
	const variants = 4
	tenants := 8
	if small {
		tenants = 2
	}
	b, err := newBuilder("serve_churn", seed, tenants)
	if err != nil {
		return nil, err
	}
	hol := make([][][]string, tenants)
	state := make([]churnState, tenants)
	for t := 0; t < tenants; t++ {
		for v := 0; v < variants; v++ {
			hol[t] = append(hol[t], holidays(b.rng, 1993, 1998, 10))
		}
		if err := b.provision(op{kind: opPutDays, tenant: t, name: "holidays", days: hol[t][0], status: http.StatusCreated}); err != nil {
			return nil, err
		}
		if err := b.provision(op{kind: opPutDerived, tenant: t, name: "bizdays", expr: bizdaysScript, status: http.StatusCreated}); err != nil {
			return nil, err
		}
		if err := b.provision(op{kind: opPutRule, tenant: t, name: "eom", expr: "[n]/bizdays:during:MONTHS", status: http.StatusCreated}); err != nil {
			return nil, err
		}
	}
	reads := []string{"[n]/bizdays:during:MONTHS", "[1]/bizdays:during:WEEKS", "bizdays:intersects:([1]/WEEKS:overlaps:MONTHS)"}
	afters := []string{"1993-06-01", "1994-02-15", "1995-11-30", "1996-08-08"}
	third := &serve.Recurrence{Cycle: "monthly", Ordinal: "third", WDays: []string{"friday"}}
	if n > churnStream {
		n = churnStream
	}
	for i := 0; i < n*nConns; i++ {
		t := b.rng.Intn(tenants)
		st := &state[t]
		var o op
		switch p := b.rng.Intn(100); {
		case p < 9: // replace the stored set every dependant reads
			st.hol = (st.hol + 1 + b.rng.Intn(variants-1)) % variants
			o = op{kind: opPutDays, tenant: t, name: "holidays", days: hol[t][st.hol], status: http.StatusOK}
		case p < 17: // define or drop a calendar derived from it
			if st.scratch {
				o = op{kind: opDelCal, tenant: t, name: "scratch", status: http.StatusNoContent}
			} else {
				o = op{kind: opPutDerived, tenant: t, name: "scratch", expr: "([5]/DAYS:during:WEEKS) - holidays", status: http.StatusCreated}
			}
			st.scratch = !st.scratch
		case p < 25: // define or drop a recurrence rule
			if st.tmp {
				o = op{kind: opDelRule, tenant: t, name: "tmp", status: http.StatusNoContent}
			} else {
				o = op{kind: opPutRule, tenant: t, name: "tmp", rec: third, status: http.StatusCreated}
			}
			st.tmp = !st.tmp
		case p < 65:
			y := 1993 + b.rng.Intn(3)
			from, to := years(y, y+b.rng.Intn(4))
			expr := reads[b.rng.Intn(len(reads))]
			if st.scratch && b.rng.Intn(4) == 0 {
				expr = "[1]/scratch:during:MONTHS"
			}
			o = op{kind: opExpand, tenant: t, expr: expr, from: from, to: to, status: http.StatusOK}
		case p < 85:
			o = op{kind: opNext, tenant: t, name: "eom", from: afters[b.rng.Intn(len(afters))], status: http.StatusOK}
		default:
			name := "holidays"
			if b.rng.Intn(2) == 0 {
				name = "bizdays"
			}
			o = op{kind: opGetCal, tenant: t, name: name, status: http.StatusOK}
		}
		// Every answer depends on the stored holidays and on nothing else
		// the writes change; a PUT of variant v is its own key.
		idx, err := b.entryFor(o, fmt.Sprint(st.hol))
		if err != nil {
			return nil, err
		}
		b.push(idx)
		if o.class() == clsWrite {
			if err := b.twins[t].apply(&o); err != nil {
				return nil, err
			}
		}
	}
	return b.w, nil
}

// serveWorkloads maps the fixed workload names to their generators: n
// requests per connection from the seed; small shrinks the key space of the
// workloads whose oracle is expensive, for the smoke tests.
var serveWorkloads = map[string]func(seed int64, n int, small bool) (*workload, error){
	"serve_hot":   buildHot,
	"serve_wide":  buildWide,
	"serve_bulk":  buildBulk,
	"serve_churn": buildChurn,
}
