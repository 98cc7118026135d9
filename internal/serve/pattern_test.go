package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"calsys"
	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/core/callang"
	"calsys/internal/core/matcache"
	"calsys/internal/core/plan"
)

// expandBoth returns the /expand body of src over [from, to] as the plan
// path writes it (EvalExpr, then the encoder over the calendar) and as the
// pattern path does (the encoder over the index walk); ok is false when the
// expression has no pattern. A plan error fails the test: every expression a
// pattern answers must also evaluate.
func expandBoth(t testing.TB, m *caldb.Manager, src string, from, to chronology.Civil) (planBody, patBody []byte, ok bool) {
	t.Helper()
	p := m.Prepared("", src)
	pat, ok := p.Pattern()
	if !ok {
		return nil, nil, false
	}
	l, _ := p.Lowered()
	cal, err := m.EvalExpr(src, from, to)
	if err != nil {
		t.Fatalf("%q has a pattern, but over %s..%s the plan fails: %v", src, from, to, err)
	}
	ch := m.Chron()
	var a, b bytes.Buffer
	if err := encodeExpand(context.Background(), &a, ch, src, expandSource{g: cal.Granularity(), cal: cal}, from, to); err != nil {
		t.Fatal(err)
	}
	if err := encodeExpand(context.Background(), &b, ch, src, expandSource{g: l.Gran, pat: pat}, from, to); err != nil {
		t.Fatal(err)
	}
	return a.Bytes(), b.Bytes(), true
}

// patternWindow draws a window around tick 0 (the epoch), cut anywhere
// inside the groups, at most a few days long for sub-day granularities.
func patternWindow(rng *rand.Rand, epoch chronology.Civil, fine bool) (from, to chronology.Civil) {
	from = epoch.AddDays(int64(rng.Intn(6000)) - 3000)
	span := int64(rng.Intn(45))
	switch {
	case fine:
		span = int64(rng.Intn(3))
	case rng.Intn(3) == 0:
		span = int64(rng.Intn(2500))
	}
	return from, from.AddDays(span)
}

// TestExpandPatternMatchesPlan holds the two /expand paths to the same bytes
// on basic-only expressions of every basic granularity, the groupings with
// members cut to their groups (the two pieces of a week straddling two
// months), relaxed groupings (a straddling week listed under both months),
// selections, set operators and provably empty lists, over random windows
// around tick 0 under the default epoch and a mid-year one. The shapes with
// window edge effects, nested groups or catalog reads must decline the
// pattern.
func TestExpandPatternMatchesPlan(t *testing.T) {
	exact := []string{
		"SECONDS", "MINUTES", "HOURS", "DAYS", "WEEKS", "MONTHS", "YEARS", "DECADES", "CENTURY",
		"HOURS:during:DAYS", "[9]/HOURS:during:DAYS",
		"DAYS:during:WEEKS", "DAYS:during:MONTHS", "WEEKS:during:MONTHS", "MONTHS:during:YEARS",
		"WEEKS:overlaps:MONTHS", "DAYS:meets:WEEKS", "WEEKS:overlaps:YEARS",
		"[1]/WEEKS:overlaps:MONTHS", "[n]/WEEKS:overlaps:MONTHS", "[-2]/DAYS:during:MONTHS",
		"[1]/DAYS:during:WEEKS", "[n]/DAYS:during:MONTHS", "[1,15]/DAYS:during:MONTHS", "[2-4]/DAYS:during:WEEKS",
		"[3]/([5]/DAYS:during:WEEKS):overlaps:MONTHS", "[n]/([1]/DAYS:during:WEEKS):during:([5]/MONTHS:during:YEARS)",
		"([6]/DAYS:during:WEEKS) + ([7]/DAYS:during:WEEKS)", "WEEKS - ([1]/WEEKS:overlaps:MONTHS)",
		"([1]/DAYS:during:WEEKS):intersects:([1,2]/DAYS:during:WEEKS)",
		"WEEKS.overlaps.MONTHS", "[1]/WEEKS.overlaps.MONTHS", "[n]/WEEKS.overlaps.MONTHS", "DAYS.meets.WEEKS",
		"WEEKS.meets.MONTHS", "([1]/DAYS:during:WEEKS).overlaps.MONTHS", "HOURS.overlaps.DAYS",
		"DAYS - DAYS", "([1]/DAYS:during:WEEKS):intersects:([2]/DAYS:during:WEEKS)",
	}
	edge := []string{
		"[n]/WEEKS:<:MONTHS", "[-2]/DAYS:<=:MONTHS",
		"[1]/(DAYS:during:WEEKS):during:MONTHS", "holidays", "[n]/holidays:during:MONTHS", "today", "[1]/DAYS",
	}
	rng := rand.New(rand.NewSource(38))
	pairs, empties, grans := 0, 0, map[string]bool{}
	for _, epoch := range []chronology.Civil{calsys.DefaultEpoch, {Year: 2001, Month: 3, Day: 15}} {
		sys := calsys.MustOpen(calsys.WithEpoch(epoch))
		m := sys.Rules().Cal()
		hol, err := calsys.CalendarFromPoints(calsys.Day, []calsys.Tick{31, 90, 359})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.DefineStoredCalendar("holidays", hol); err != nil {
			t.Fatal(err)
		}
		for _, src := range edge {
			if _, ok := m.Prepared("", src).Pattern(); ok {
				t.Errorf("%q has window edge effects or reads the catalog, yet answers from a pattern", src)
			}
		}
		for _, src := range exact {
			l, err := m.Prepared("", src).Lowered()
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			for i := 0; i < 8; i++ {
				from, to := patternWindow(rng, epoch, l.Gran.Finer(chronology.Day))
				planBody, patBody, ok := expandBoth(t, m, src, from, to)
				if !ok {
					t.Fatalf("%q over %s..%s: no pattern", src, from, to)
				}
				if !bytes.Equal(planBody, patBody) {
					t.Fatalf("%q over %s..%s (epoch %s): the pattern path differs from the plan\nplan:    %.600q\npattern: %.600q",
						src, from, to, epoch, planBody, patBody)
				}
				pairs++
				grans[l.Gran.String()] = true
				if bytes.Contains(patBody, []byte(`"count": 0,`)) {
					empties++
				}
			}
		}
	}
	if pairs < 400 || empties == 0 || len(grans) < 3 {
		t.Errorf("%d pairs, %d empty, granularities %v: the sweep is too narrow", pairs, empties, grans)
	}
	t.Logf("%d expression × window pairs, %d empty, plan granularities %v", pairs, empties, grans)
}

// genUnits are the basic calendars genBasicExpr draws, finest first.
var genUnits = []string{"HOURS", "DAYS", "WEEKS", "MONTHS", "YEARS"}

// genBasicExpr builds a random basic-only expression whose elements are
// mostly no coarser than genUnits[unit]: foreach groupings (during, overlaps,
// meets, before; strict and relaxed) of finer values by coarser ones, with
// the odd inverted pair, selections with positive, last and negative picks,
// set operators and caloperate.
func genBasicExpr(rng *rand.Rand, depth, unit int) string {
	if depth <= 0 || unit == 0 || rng.Intn(5) == 0 {
		return genUnits[max(0, unit-rng.Intn(2))]
	}
	sub := func(u int) string { return "(" + genBasicExpr(rng, depth-1, u) + ")" }
	foreach := func() string {
		op := []string{"during", "during", "during", "overlaps", "overlaps", "meets", "<", "<="}[rng.Intn(8)]
		sep := ":"
		if rng.Intn(4) == 0 && op != "<" && op != "<=" {
			sep = "."
		}
		x := rng.Intn(unit)
		if rng.Intn(6) == 0 {
			x = rng.Intn(len(genUnits))
		}
		return sub(x) + sep + op + sep + sub(unit)
	}
	switch rng.Intn(6) {
	case 0, 1:
		return foreach()
	case 2, 3:
		pred := []string{"[1]", "[2]", "[3]", "[n]", "[-1]", "[-2]", "[1,3]", "[2-4]", "[1,n]", "[5]"}[rng.Intn(10)]
		return pred + "/(" + foreach() + ")"
	case 4:
		return sub(unit) + []string{" + ", " - ", ":intersects:"}[rng.Intn(3)] + sub(unit)
	}
	return fmt.Sprintf("caloperate(%s, %d)", genUnits[unit], 1+rng.Intn(3))
}

// FuzzExpandPattern holds the pattern path of /expand to the plan path's
// bytes on random basic-only expressions over random windows across tick 0,
// under the default or a mid-year epoch.
func FuzzExpandPattern(f *testing.F) {
	managers := map[bool]*caldb.Manager{}
	epochs := map[bool]chronology.Civil{false: calsys.DefaultEpoch, true: {Year: 2001, Month: 3, Day: 15}}
	for k, epoch := range epochs {
		managers[k] = calsys.MustOpen(calsys.WithEpoch(epoch)).Rules().Cal()
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%2 == 1, int32(seed*431-1500), uint16(seed*97))
	}
	f.Fuzz(func(t *testing.T, seed int64, midYear bool, fromDay int32, span uint16) {
		m := managers[midYear]
		rng := rand.New(rand.NewSource(seed))
		src := genBasicExpr(rng, 3, 1+rng.Intn(len(genUnits)-1))
		l, err := m.Prepared("", src).Lowered()
		if err != nil {
			return
		}
		from := epochs[midYear].AddDays(int64(fromDay % 4000))
		days := int64(span % 3000)
		if l.Gran.Finer(chronology.Day) {
			days %= 3
		}
		to := from.AddDays(days)
		if planBody, patBody, ok := expandBoth(t, m, src, from, to); ok && !bytes.Equal(planBody, patBody) {
			t.Fatalf("%q over %s..%s: the pattern path differs from the plan\nplan:    %.600q\npattern: %.600q",
				src, from, to, planBody, patBody)
		}
	})
}

// A pattern answers without touching the materialization cache, counts in
// prepared.pattern_expands, and follows the catalog: redefining a derived
// calendar that an expression inlines changes the expression's answer.
func TestExpandPatternFollowsCatalog(t *testing.T) {
	ts, _ := newTestServer(t)
	tok := mkTenant(t, ts, "acme")
	define := func(src string) {
		t.Helper()
		if status, out := call(t, ts, "PUT", "/v1/tenants/acme/calendars/payday", tok, map[string]any{"derivation": src}); status/100 != 2 {
			t.Fatalf("define payday as %s: %d %v", src, status, out)
		}
	}
	expand := func() string {
		t.Helper()
		status, body := rawCall(t, ts, "POST", "/v1/tenants/acme/expand", tok,
			map[string]string{"expr": "[2]/payday:during:MONTHS", "from": "1993-01-01", "to": "1993-01-31"})
		if status != http.StatusOK {
			t.Fatalf("expand: %d %s", status, body)
		}
		return string(body)
	}
	patternExpands := func() float64 {
		t.Helper()
		_, body := call(t, ts, "GET", "/debug/cachestats", testAdminToken, nil)
		prep, _ := body["prepared"].(map[string]any)
		n, ok := prep["pattern_expands"].(float64)
		if !ok {
			t.Fatalf("cachestats has no prepared.pattern_expands: %v", body)
		}
		return n
	}

	define("[5]/DAYS:during:WEEKS;") // Fridays: the second is January 8th
	before, entries := patternExpands(), matcache.Shared().Stats().Expressions.Entries
	if got := expand(); !strings.Contains(got, `"start": "1993-01-08"`) {
		t.Fatalf("second Friday of January 1993: %s", got)
	}
	if n := patternExpands(); n != before+1 {
		t.Errorf("pattern_expands went from %v to %v; the expand was answered by its pattern", before, n)
	}
	if n := matcache.Shared().Stats().Expressions.Entries; n != entries {
		t.Errorf("expression entries went from %d to %d; a pattern answer files none", entries, n)
	}
	if status, out := call(t, ts, "DELETE", "/v1/tenants/acme/calendars/payday", tok, nil); status != http.StatusNoContent {
		t.Fatalf("drop payday: %d %v", status, out)
	}
	define("[1]/DAYS:during:WEEKS;") // Mondays: the second is January 11th
	if got := expand(); !strings.Contains(got, `"start": "1993-01-11"`) {
		t.Fatalf("after redefining payday, the second Monday of January 1993: %s", got)
	}
}

// FuzzNextPattern holds the tenant's /next (Server.nextInstant: the pattern
// where /expand answers from it, else the tenant's scheduler) to the window
// definition — plan.NewScheduler run eagerly over the tenant's catalog — on
// random basic-only expressions (FuzzExpandPattern's generator, or the
// expression given when it is one) and instants across tick 0, under the
// default or a mid-year epoch. /next searches 730 days ahead; a sub-day
// expression searches 3, which keeps each window definition to milliseconds.
// The definition may also report an element its probe generated past the
// horizon, which a pattern, clipped at the horizon, never does: then a
// pattern must find nothing.
func FuzzNextPattern(f *testing.F) {
	epochs := map[bool]chronology.Civil{false: calsys.DefaultEpoch, true: {Year: 2001, Month: 3, Day: 15}}
	tenants := map[bool]*Tenant{}
	for k, epoch := range epochs {
		tenants[k] = &Tenant{Name: "fuzz", sys: calsys.MustOpen(calsys.WithEpoch(epoch)), rules: map[string]*ruleInfo{}}
	}
	srv := &Server{}
	f.Add(int64(0), false, int32(2192*86400), "[1]/(DAYS:during:WEEKS):during:MONTHS")
	f.Add(int64(1), true, int32(-40*86400+7), "[1]/(DAYS:during:WEEKS):during:MONTHS")
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%2 == 1, int32(seed*431-1500)*86400+int32(seed*3607), "")
	}
	f.Fuzz(func(t *testing.T, seed int64, midYear bool, offset int32, src string) {
		tn := tenants[midYear]
		if e, err := callang.ParseExpr(src); err != nil || !callang.BasicOnly(e) {
			src = genBasicExpr(rand.New(rand.NewSource(seed)), 3, 1+int(uint64(seed)%uint64(len(genUnits)-1)))
		}
		m := tn.Manager()
		p := m.Prepared("", src)
		l, err := p.Lowered()
		if err != nil {
			return
		}
		ch := m.Chron()
		after := ch.EpochSecondsOf(epochs[midYear]) + int64(offset)
		ref := plan.NewScheduler(&plan.Env{Chron: ch, Cat: m, DisableSharing: true}, l.Expr, l.Gran)
		horizon := int64(plan.DefaultHorizonDays)
		var got int64
		var ok bool
		if l.Gran.Finer(chronology.Day) {
			horizon = 3
			ref.Configure(horizon)
			got, ok, err = p.NextAfter(after, horizon)
		} else {
			got, ok, _, err = srv.nextInstant(tn, p, after)
		}
		want, wok, werr := ref.NextAfter(after)
		_, patOK := p.Pattern()
		hwin, herr := plan.HorizonWindow(ch, l.Gran, after, horizon)
		if patOK && herr == nil && wok && want > ch.UnitStart(l.Gran, hwin.Hi) {
			wok = false // past the horizon, where a pattern answers nothing
		}
		if (err != nil) != (werr != nil) || ok != wok || (ok && got != want) {
			t.Fatalf("%q after %v (pattern %v): /next %v,%v,%v; window definition %v,%v,%v",
				src, ch.CivilOf(after), patOK, ch.CivilOf(got), ok, err, ch.CivilOf(want), wok, werr)
		}
	})
}
