package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"

	"calsys"
	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/callang/symbolic"
	"calsys/internal/core/matcache"
	"calsys/internal/core/plan"
)

// expandBoth returns the /expand body of src over [from, to] as the plan
// path writes it (the plan run eagerly, then the encoder over the calendar)
// and as the pattern path does (the encoder over the index walk); ok is false
// when the expression has no pattern. A plan error fails the test: every
// expression a pattern answers must also evaluate.
func expandBoth(t testing.TB, m *caldb.Manager, src string, from, to chronology.Civil) (planBody, patBody []byte, ok bool) {
	t.Helper()
	p := m.Prepared("", src)
	pat, ok := p.Pattern()
	if !ok {
		return nil, nil, false
	}
	l, _ := p.Lowered()
	cal, err := plan.Evaluate(&plan.Env{Chron: m.Chron(), Cat: m, DisableSharing: true}, p.Expr, from, to)
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
// selections, set operators and provably empty lists, and on expressions
// over a stored list of weekdays (storedExact and genStoredExpr's), over
// random windows around tick 0 under the default epoch and a mid-year one.
// The shapes with window edge effects, nested groups or a reading the
// lowering declines must decline the pattern.
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
	exact = append(exact, storedExact...)
	edge := []string{
		"[n]/WEEKS:<:MONTHS", "[-2]/DAYS:<=:MONTHS",
		"[1]/(DAYS:during:WEEKS):during:MONTHS", "today", "[1]/DAYS",
		storedDeclining, "WEEKS - holidays", "DAYS:during:(MONTHS - holidays)",
		"[n]/bizdays:<:MONTHS",
	}
	rng := rand.New(rand.NewSource(38))
	pairs, empties, stored, grans := 0, 0, 0, map[string]bool{}
	for _, epoch := range []chronology.Civil{calsys.DefaultEpoch, {Year: 2001, Month: 3, Day: 15}} {
		m := storedSystem(t, epoch).Rules().Cal()
		putWeekdays(t, m, rand.New(rand.NewSource(epoch.Rata())))
		for _, src := range edge {
			if _, ok := m.Prepared("", src).Pattern(); ok {
				t.Errorf("%q has window edge effects or a reading the lowering declines, yet answers from a pattern", src)
			}
		}
		check := func(src string, windows int) {
			l, err := m.Prepared("", src).Lowered()
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			for i := 0; i < windows; i++ {
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
		for _, src := range exact {
			check(src, 8)
		}
		// Random stored-operand shapes over random weekday sets: every one
		// with a pattern must match the plan.
		for i := 0; i < 60; i++ {
			putWeekdays(t, m, rng)
			src := genStoredExpr(rng)
			if _, ok := m.Prepared("", src).Pattern(); ok {
				check(src, 3)
				stored++
			}
		}
	}
	if pairs < 400 || empties == 0 || len(grans) < 3 || stored < 40 {
		t.Errorf("%d pairs, %d empty, %d random stored shapes with a pattern, granularities %v: the sweep is too narrow", pairs, empties, stored, grans)
	}
	t.Logf("%d expression × window pairs, %d empty, %d random stored shapes, plan granularities %v", pairs, empties, stored, grans)
}

// storedExact are the stored-operand shapes the pattern answers: the four of
// the benchmark's serve_wide that lower, the scratch selection of its
// serve_churn, the bare stored list and a grouping of it. Over weekdays
// whose holidays are a stored list of weekdays (putWeekdays), bizdays is
// the paper's business days and scratch the Fridays that are not holidays.
var storedExact = []string{
	"[n]/bizdays:during:MONTHS", "[1]/bizdays:during:MONTHS",
	"[1]/(([5]/DAYS:during:WEEKS) - holidays):during:MONTHS", "bizdays:intersects:([1]/WEEKS:overlaps:MONTHS)",
	"[1]/scratch:during:MONTHS", "[1]/bizdays:during:WEEKS", "holidays", "[n]/holidays:during:MONTHS",
	"bizdays + holidays", "DAYS:during:MONTHS - bizdays", "[-2]/bizdays.overlaps.WEEKS",
}

// storedDeclining is the benchmark's serve_wide shape that keeps the plan: a
// grouping by caloperate has no pattern.
const storedDeclining = "[n]/bizdays:during:caloperate(MONTHS, 3)"

// storedSystem opens a system under epoch with an empty stored list holidays
// and the derived calendars bizdays (a script, inlined) and scratch.
func storedSystem(t testing.TB, epoch chronology.Civil) *calsys.System {
	t.Helper()
	sys := calsys.MustOpen(calsys.WithEpoch(epoch))
	hol, err := calsys.CalendarFromPoints(calsys.Day, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineStoredCalendar("holidays", hol); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"bizdays": "{wd = [1,2,3,4,5]/DAYS:during:WEEKS; return (wd - holidays);}",
		"scratch": "([5]/DAYS:during:WEEKS) - holidays",
	} {
		if err := sys.DefineCalendar(name, src, calsys.GranAuto); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// putWeekdays stores 0–60 random weekdays as holidays, within 200 or 3000
// days of tick 0 on either side.
func putWeekdays(t testing.TB, m *caldb.Manager, rng *rand.Rand) {
	t.Helper()
	ch := m.Chron()
	spread := []int{200, 3000}[rng.Intn(2)]
	seen := map[chronology.Tick]bool{}
	var ticks []chronology.Tick
	for n := rng.Intn(61); len(ticks) < n; {
		tk := chronology.Tick(rng.Intn(2*spread+1) - spread)
		if tk == 0 || seen[tk] || ch.CivilOfDayTick(tk).Weekday() >= chronology.Saturday {
			continue
		}
		seen[tk] = true
		ticks = append(ticks, tk)
	}
	slices.Sort(ticks)
	hol, err := calendar.FromPoints(chronology.Day, ticks)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ReplaceStored("holidays", hol); err != nil {
		t.Fatal(err)
	}
}

// genStoredExpr builds a random day-granularity expression over the stored
// point list holidays: in -, + and :intersects: with a basic-only
// expression, and as the x of a grouping or a selection.
func genStoredExpr(rng *rand.Rand) string {
	points := func() string {
		if rng.Intn(3) == 0 {
			return genBasicExpr(rng, 2, 1)
		}
		return []string{"DAYS", "[1,2,3,4,5]/DAYS:during:WEEKS", "[5]/DAYS:during:WEEKS", "[n]/DAYS:during:MONTHS",
			"DAYS:during:MONTHS", "[2,4]/DAYS:during:WEEKS"}[rng.Intn(6)]
	}
	x := func() string {
		switch rng.Intn(6) {
		case 0:
			return "holidays"
		case 1:
			return "(" + points() + ") + holidays"
		case 2:
			return "holidays:intersects:(" + points() + ")"
		case 3:
			return "(" + points() + "):intersects:(" + points() + " - holidays)"
		}
		return "(" + points() + ") - holidays"
	}
	y := func() string {
		if rng.Intn(3) == 0 {
			return genBasicExpr(rng, 1, 2+rng.Intn(3))
		}
		return []string{"WEEKS", "MONTHS", "YEARS", "[1]/WEEKS:overlaps:MONTHS"}[rng.Intn(4)]
	}
	op := []string{":during:", ":during:", ":overlaps:", ".overlaps.", ":meets:"}[rng.Intn(5)]
	pred := []string{"[1]", "[2]", "[n]", "[-2]", "[1,3]", "[2-4]", "[1,n]"}[rng.Intn(7)]
	switch rng.Intn(6) {
	case 0:
		return x()
	case 1:
		return "(" + x() + ")" + []string{" + ", " - ", ":intersects:"}[rng.Intn(3)] + "(" + y() + ")"
	case 2:
		return "(" + y() + ") - (" + x() + ")"
	case 3:
		return "(" + x() + ")" + op + "(" + y() + ")"
	}
	return pred + "/(" + x() + ")" + op + "(" + y() + ")"
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
// bytes on random expressions over random windows across tick 0, under the
// default or a mid-year epoch: basic-only ones, and (fuzzSource) ones over a
// random stored list of weekdays.
func FuzzExpandPattern(f *testing.F) {
	managers := map[bool]*caldb.Manager{}
	epochs := map[bool]chronology.Civil{false: calsys.DefaultEpoch, true: {Year: 2001, Month: 3, Day: 15}}
	for k, epoch := range epochs {
		managers[k] = storedSystem(f, epoch).Rules().Cal()
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%2 == 1, int32(seed*431-1500), uint16(seed*97), "")
	}
	for i, src := range append(storedExact, storedDeclining) {
		f.Add(int64(i), i%2 == 1, int32(i*173-900), uint16(400+i*211), src)
	}
	f.Fuzz(func(t *testing.T, seed int64, midYear bool, fromDay int32, span uint16, src string) {
		m := managers[midYear]
		src = fuzzSource(t, m, seed, src, func() string {
			rng := rand.New(rand.NewSource(seed))
			return genBasicExpr(rng, 3, 1+rng.Intn(len(genUnits)-1))
		})
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

// fuzzSource stores a random list of weekdays drawn from seed as holidays
// and returns src when it parses and reads only basic calendars, holidays,
// bizdays and scratch; else a random expression from seed: one over the
// stored list for a seed ≡ ±1 mod 3, else basic's.
func fuzzSource(t testing.TB, m *caldb.Manager, seed int64, src string, basic func() string) string {
	putWeekdays(t, m, rand.New(rand.NewSource(seed^0x5eed)))
	if e, err := callang.ParseExpr(src); err == nil {
		known := true
		callang.Walk(e, func(x callang.Expr) {
			if id, ok := x.(*callang.Ident); ok {
				_, basic := chronology.LookupGranularity(id.Name)
				known = known && (basic || slices.Contains([]string{"holidays", "bizdays", "scratch"}, id.Name))
			}
		})
		if known {
			return src
		}
	}
	if seed%3 == 1 || seed%3 == -1 {
		return genStoredExpr(rand.New(rand.NewSource(seed)))
	}
	return basic()
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
// random expressions (fuzzSource: basic-only ones, FuzzExpandPattern's
// generator, and ones over a random stored list of weekdays) and instants
// across tick 0, under the default or a mid-year epoch. /next searches 730
// days ahead; a sub-day expression searches 3, which keeps each window
// definition to milliseconds.
func FuzzNextPattern(f *testing.F) {
	epochs := map[bool]chronology.Civil{false: calsys.DefaultEpoch, true: {Year: 2001, Month: 3, Day: 15}}
	tenants := map[bool]*Tenant{}
	for k, epoch := range epochs {
		tenants[k] = &Tenant{Name: "fuzz", sys: storedSystem(f, epoch), rules: map[string]*ruleInfo{}}
	}
	srv := &Server{}
	f.Add(int64(0), false, int32(2192*86400), "[1]/(DAYS:during:WEEKS):during:MONTHS")
	f.Add(int64(1), true, int32(-40*86400+7), "[1]/(DAYS:during:WEEKS):during:MONTHS")
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%2 == 1, int32(seed*431-1500)*86400+int32(seed*3607), "")
	}
	for i, src := range append(storedExact, storedDeclining) {
		f.Add(int64(i), i%2 == 0, int32(i*97-500)*86400+int32(i*3607), src)
	}
	f.Fuzz(func(t *testing.T, seed int64, midYear bool, offset int32, src string) {
		tn := tenants[midYear]
		m := tn.Manager()
		src = fuzzSource(t, m, seed, src, func() string {
			return genBasicExpr(rand.New(rand.NewSource(seed)), 3, 1+int(uint64(seed)%uint64(len(genUnits)-1)))
		})
		p := m.Prepared("", src)
		l, err := p.Lowered()
		if err != nil {
			return
		}
		ch := m.Chron()
		after := ch.EpochSecondsOf(epochs[midYear]) + int64(offset)
		ref := plan.NewScheduler(&plan.Env{Chron: ch, Cat: m, DisableSharing: true}, l.Expr, l.Gran)
		var got int64
		var ok bool
		if l.Gran.Finer(chronology.Day) {
			ref.Configure(3)
			got, ok, err = p.NextAfter(after, 3)
		} else {
			got, ok, _, err = srv.nextInstant(tn, p, after)
		}
		want, wok, werr := ref.NextAfter(after)
		if (err != nil) != (werr != nil) || ok != wok || (ok && got != want) {
			_, patOK := p.Pattern()
			t.Fatalf("%q after %v (pattern %v): /next %v,%v,%v; window definition %v,%v,%v",
				src, ch.CivilOf(after), patOK, ch.CivilOf(got), ok, err, ch.CivilOf(want), wok, werr)
		}
	})
}

// The window definition and the pattern stop at the same horizon: an element
// the plan generates past the horizon window's end (a relaxed grouping
// widens the window it generates) is no answer on either path. FuzzNextPattern
// found this expression, whose definition answered 1998-04-30 three days
// into a 3-day search from 1998-04-11 while the pattern answered nothing.
func TestNextHorizonClip(t *testing.T) {
	epoch := chronology.Civil{Year: 2001, Month: 3, Day: 15}
	m := calsys.MustOpen(calsys.WithEpoch(epoch)).Rules().Cal()
	const src = "(HOURS).overlaps.([n]/((HOURS):overlaps:([-2]/((HOURS):during:(MONTHS)))))"
	p := m.Prepared("", src)
	l, err := p.Lowered()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Pattern(); !ok {
		t.Fatalf("%q has no pattern: the case compares nothing", src)
	}
	ch := m.Chron()
	ref := plan.NewScheduler(&plan.Env{Chron: ch, Cat: m, DisableSharing: true}, l.Expr, l.Gran)
	ref.Configure(3)
	for _, after := range []int64{ch.EpochSecondsOf(epoch) - 92357986, ch.EpochSecondsOf(epoch) - 92358038} {
		got, ok, err := p.NextAfter(after, 3)
		want, wok, werr := ref.NextAfter(after)
		if err != nil || werr != nil || ok != wok || ok && got != want {
			t.Errorf("after %v: pattern %v,%v,%v; window definition %v,%v,%v",
				ch.CivilOf(after), ch.CivilOf(got), ok, err, ch.CivilOf(want), wok, werr)
		}
		hwin, _ := plan.HorizonWindow(ch, l.Gran, after, 3)
		if wok && want > ch.UnitStart(l.Gran, hwin.Hi) {
			t.Errorf("after %v: the window definition answered %v, past the horizon", ch.CivilOf(after), ch.CivilOf(want))
		}
	}
}

// A holiday write keeps the stored calendar's shape, so the anonymous
// Prepared entries that read it survive the write: their pattern must follow
// the new values, not the ones it was first lowered from. /expand and /next
// of the last business day of June 1993 move when June 30th becomes a holiday
// and move back when it stops being one, every answer from the pattern, with
// no probe of the window definition.
func TestStoredPatternFollowsWrites(t *testing.T) {
	ts, srv := newTestServer(t)
	tok := mkTenant(t, ts, "acme")
	put := func(path string, body map[string]any) {
		t.Helper()
		if status, out := call(t, ts, "PUT", "/v1/tenants/acme/"+path, tok, body); status/100 != 2 {
			t.Fatalf("put %s: %d %v", path, status, out)
		}
	}
	const eom = "[n]/bizdays:during:MONTHS"
	put("calendars/holidays", map[string]any{"days": []string{"1993-07-05"}})
	put("calendars/bizdays", map[string]any{"derivation": "{wd = [1,2,3,4,5]/DAYS:during:WEEKS; return (wd - holidays);}"})
	put("rules/eom", map[string]any{"expr": eom})
	patternExpands := func() float64 {
		_, body := call(t, ts, "GET", "/debug/cachestats", testAdminToken, nil)
		prep, _ := body["prepared"].(map[string]any)
		n, _ := prep["pattern_expands"].(float64)
		return n
	}
	answers := func() (expand, next any) {
		t.Helper()
		before := patternExpands()
		status, body := call(t, ts, "POST", "/v1/tenants/acme/expand", tok,
			map[string]string{"expr": eom, "from": "1993-06-01", "to": "1993-06-30"})
		if status != http.StatusOK || patternExpands() != before+1 {
			t.Fatalf("expand: %d %v; pattern_expands %v → %v", status, body, before, patternExpands())
		}
		ivs, _ := body["intervals"].([]any)
		if len(ivs) != 1 {
			t.Fatalf("expand: %v", body)
		}
		status, nb := call(t, ts, "POST", "/v1/tenants/acme/next", tok, map[string]string{"rule": "eom", "after": "1993-06-15"})
		if status != http.StatusOK {
			t.Fatalf("next: %d %v", status, nb)
		}
		return ivs[0].(map[string]any)["start"], nb["next"]
	}
	for i, tc := range []struct {
		days []string
		want string
	}{
		{[]string{"1993-07-05"}, "1993-06-30"},
		{[]string{"1993-06-30", "1993-07-05"}, "1993-06-29"},
		{[]string{"1993-07-05"}, "1993-06-30"},
	} {
		if i > 0 {
			put("calendars/holidays", map[string]any{"days": tc.days})
		}
		if expand, next := answers(); expand != tc.want || next != tc.want {
			t.Errorf("holidays %v: expand %v, next %v; want %s", tc.days, expand, next, tc.want)
		}
	}
	tn, _ := srv.Registry().Get("acme")
	p := tn.Manager().Prepared("", eom)
	if _, ok := p.Pattern(); !ok {
		t.Fatalf("%q has no pattern", eom)
	}
	if n := tn.Manager().WindowEvals(); n != 0 {
		t.Errorf("the window definition ran: %d window evaluations", n)
	}
}

// Tenants share a stored-reading pattern's base, the memo's lowering of the
// stored-free twin, and own only its point lists, which the memo keys by the
// stored values' content: a holiday list written back finds its lowering
// again without lowering anything.
func TestStoredPatternSharesBase(t *testing.T) {
	const src = "[n]/bizdays:during:MONTHS"
	rng := rand.New(rand.NewSource(40))
	a, b := storedSystem(t, calsys.DefaultEpoch).Rules().Cal(), storedSystem(t, calsys.DefaultEpoch).Rules().Cal()
	var first, second *calendar.Calendar
	for first == nil || first.Len() == 0 {
		putWeekdays(t, a, rng)
		first, _ = a.StoredCalendar("holidays")
	}
	for second == nil || second.Len() == 0 || second.Equal(first) {
		putWeekdays(t, b, rng)
		second, _ = b.StoredCalendar("holidays")
	}
	pa, oka := a.Prepared("", src).Pattern()
	pb, okb := b.Prepared("", src).Pattern()
	if !oka || !okb || pa == nil || pb == nil || pa.Base == nil || pa.Base != pb.Base {
		t.Fatalf("patterns %v,%v: the two tenants' bases differ", pa, pb)
	}
	if err := b.ReplaceStored("holidays", first); err != nil {
		t.Fatal(err)
	}
	misses := symbolic.Stats().Misses
	if pc, ok := b.Prepared("", src).Pattern(); !ok || pc != pa {
		t.Fatalf("the first list written back gives %v, not the first tenant's %v", pc, pa)
	}
	if n := symbolic.Stats().Misses - misses; n != 0 {
		t.Errorf("the list written back lowered %d times, want 0", n)
	}
}
