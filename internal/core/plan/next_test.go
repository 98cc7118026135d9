package plan

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/interval"
	"calsys/internal/core/matcache"
)

// nextTestExprs covers both answers of caldb.Prepared.NextAfter: patterns
// (basic calendars, the compositions that are plan.WindowExact, and those
// over the stored points HOLS — business days less holidays among them, a
// shared pattern with a patch list) and the scheduler's full window, which
// takes everything else — caloperate grouping, end-relative selections,
// order-1 selections over a basic calendar and a selection over nested
// groups. The executor keeps business days less holidays as a pattern with
// exceptions and selects from it by walking groups.
var nextTestExprs = []string{
	"DAYS",
	"WEEKS",
	"MONTHS",
	"[1]/DAYS:during:WEEKS",
	"[2]/DAYS:during:WEEKS",
	"[3]/WEEKS:overlaps:MONTHS",
	"[3]/([5]/DAYS:during:WEEKS):overlaps:MONTHS",
	"[n]/DAYS:during:MONTHS",
	"[n]/DAYS:during:caloperate(MONTHS, 3)",
	"[1,2,3,4,5]/DAYS:during:WEEKS",
	"WEEKS:during:interval(2193, 2223)",
	"([1]/DAYS:during:WEEKS) + ([2]/DAYS:during:WEEKS)",
	"(DAYS:during:WEEKS) - ([1]/DAYS:during:WEEKS)",
	"[2]/(DAYS:during:MONTHS)",
	"Mondays",
	"HOLS:during:YEARS",
	"[3]/DAYS",
	"[2]/WEEKS",
	"[1,5]/DAYS",
	"[40]/WEEKS",
	"[30]/MONTHS",
	"[n]/(([1,2,3,4,5]/DAYS:during:WEEKS) - HOLS):during:MONTHS",
	"[1]/(([1,2,3,4,5]/DAYS:during:WEEKS) - HOLS):during:WEEKS",
	nestedSelect,
}

// nestedSelect picks the first day of every week-in-a-month group: Friday
// 1993-01-01 and Monday 1993-01-04 open January's first two.
const nestedSelect = "[1]/(DAYS:during:WEEKS):during:MONTHS"

// nextPropEnv is the catalog for the next-instant properties: one derived
// calendar the preparer inlines and one stored calendar with absolute
// elements. Three of them are weekdays the business-day selections of
// nextTestExprs pick: Thursday 1992-12-31 (2192) and Monday 1993-05-31 (2343)
// end their months, and Monday 1993-01-04 (2196) starts its week.
func nextPropEnv(t testing.TB) *Env {
	t.Helper()
	env, cat := env1987(t)
	defineScript(t, cat, "Mondays", "[1]/DAYS:during:WEEKS;", chronology.Day)
	hol, err := calendar.FromPoints(chronology.Day, []chronology.Tick{31, 390, 1126, 2192, 2196, 2250, 2343, 2990, 3330})
	if err != nil {
		t.Fatal(err)
	}
	cat.Stored["HOLS"] = hol
	cat.Kinds["HOLS"] = chronology.Day
	return env
}

// nextEnvs splits a property environment into the two sides of the
// scheduler's lazy-against-eager property: one runs on a shared
// materialization cache, as every product scheduler does (so the executor's
// registers stay lazy), and the reference runs the eager oracle.
func nextEnvs(env *Env) (kernel, ref *Env) {
	return &Env{Chron: env.Chron, Cat: env.Cat, Mat: matcache.New(1 << 20), MatScope: "next"},
		&Env{Chron: env.Chron, Cat: env.Cat, DisableSharing: true}
}

func prepFor(t testing.TB, env *Env, src string) (callang.Expr, chronology.Granularity) {
	t.Helper()
	prepped, gran, err := Prepare(env, expr(t, src), nil)
	if err != nil {
		t.Fatalf("prepare %q: %v", src, err)
	}
	return prepped, gran
}

// The scheduler is the window definition, and its lazy registers are an
// optimization of it: a scheduler on a shared materialization cache answers
// a random walk of queries exactly as one running every op eagerly
// (DisableSharing), and the one-shot NextInstant agrees with both. The
// caldb.Prepared gate in front of it is held to it in next_prepared_test.go.
func TestSchedulerLazyMatchesEager(t *testing.T) {
	env := nextPropEnv(t)
	kenv, renv := nextEnvs(env)
	ch := env.Chron
	const horizonDays = 140
	base := ch.EpochSecondsOf(d(1991, 1, 1))
	span := ch.EpochSecondsOf(d(1996, 1, 1)) - base
	rng := rand.New(rand.NewSource(2026))
	for _, src := range nextTestExprs {
		prepped, gran := prepFor(t, env, src)
		lazy := NewScheduler(kenv, prepped, gran)
		lazy.Configure(horizonDays)
		ref := NewScheduler(renv, prepped, gran)
		ref.Configure(horizonDays)
		for i := 0; i < 60; i++ {
			after := base + rng.Int63n(span)
			got, gok, err := lazy.NextAfter(after)
			if err != nil {
				t.Fatalf("%q: lazy NextAfter(%d): %v", src, after, err)
			}
			want, wok, err := ref.NextAfter(after)
			if err != nil {
				t.Fatalf("%q: eager NextAfter(%d): %v", src, after, err)
			}
			if gok != wok || (gok && got != want) {
				t.Fatalf("%q: NextAfter(%d [%v]) = %d,%v; eager = %d,%v",
					src, after, ch.CivilOf(after), got, gok, want, wok)
			}
			if gok && got <= after {
				t.Fatalf("%q: NextAfter(%d) = %d, not strictly after", src, after, got)
			}
			if i%20 == 0 {
				one, ook, err := NextInstant(kenv, prepped, gran, after, horizonDays)
				if err != nil || ook != wok || (ook && one != want) {
					t.Fatalf("%q: NextInstant(%d) = %d,%v,%v; eager = %d,%v", src, after, one, ook, err, want, wok)
				}
			}
		}
		if p := lazy.Probes(); p != 60 {
			t.Errorf("%q: %d probes for 60 queries, want one each", src, p)
		}
	}
}

// restrictTo lists cal's flattened elements that overlap [lo, hi], in order:
// what /expand shows of a calendar over that window.
func restrictTo(cal *calendar.Calendar, win interval.Interval) []interval.Interval {
	var out []interval.Interval
	for _, iv := range cal.Flatten().Intervals() {
		if _, ok := iv.Intersect(win); ok {
			out = append(out, iv)
		}
	}
	return out
}

// The window law (ROADMAP item 18) on relaxed groupings: evaluating over W
// and restricting to W′ ⊆ W equals evaluating over W′. A relaxed
// .overlaps. or .meets. lists an element under every group it touches, so the
// groups of the elements overlapping W′ must be evaluated even where they lie
// past W′'s edge: WEEKS.overlaps.MONTHS over 2005-10-03..10-31 lists the week
// of Oct 31 – Nov 6 (ticks 6879–6885) under October and November.
func TestRelaxedGroupingRestriction(t *testing.T) {
	env, _ := env1987(t)
	ch := env.Chron
	eval := func(src string, from, to chronology.Civil) *calendar.Calendar {
		t.Helper()
		cal, err := Evaluate(env, expr(t, src), from, to)
		if err != nil {
			t.Fatalf("%q over %v..%v: %v", src, from, to, err)
		}
		return cal
	}
	check := func(src string, w, sub [2]chronology.Civil) {
		t.Helper()
		win, err := CivilWindow(ch, chronology.Day, sub[0], sub[1])
		if err != nil {
			t.Fatal(err)
		}
		got := restrictTo(eval(src, w[0], w[1]), win)
		want := restrictTo(eval(src, sub[0], sub[1]), win)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q over %v..%v restricted to %v..%v:\n%v\nover the window:\n%v", src, w[0], w[1], sub[0], sub[1], got, want)
		}
	}
	oct := [2]chronology.Civil{d(2005, 10, 3), d(2005, 10, 31)}
	check("WEEKS.overlaps.MONTHS", [2]chronology.Civil{d(2005, 10, 3), d(2005, 12, 31)}, oct)
	if n := len(restrictTo(eval("WEEKS.overlaps.MONTHS", oct[0], oct[1]), interval.Interval{Lo: 6879, Hi: 6885})); n != 2 {
		t.Fatalf("the week 6879–6885 is listed %d times over October 2005, want 2 (October's and November's)", n)
	}
	rng := rand.New(rand.NewSource(18))
	for _, src := range []string{
		"WEEKS.overlaps.MONTHS", "[1]/WEEKS.overlaps.MONTHS", "[n]/WEEKS.overlaps.MONTHS",
		"DAYS.meets.WEEKS", "WEEKS.meets.MONTHS", "[2]/WEEKS.overlaps.YEARS", "([1]/DAYS:during:WEEKS).overlaps.MONTHS",
		"[n]/WEEKS:<:MONTHS", "[n]/WEEKS:<=:MONTHS", "[-2]/DAYS:<:WEEKS",
	} {
		for i := 0; i < 20; i++ {
			from := d(1990, 1, 1).AddDays(int64(rng.Intn(3000)))
			to := from.AddDays(int64(rng.Intn(120)))
			a := from.AddDays(int64(rng.Intn(int(to.Rata()-from.Rata()) + 1)))
			b := a.AddDays(int64(rng.Intn(int(to.Rata()-a.Rata()) + 1)))
			check(src, [2]chronology.Civil{from, to}, [2]chronology.Civil{a, b})
		}
	}
}

// A before grouping's group holds the elements preceding its Y element, so the
// last weeks of a window belong to the group of the month after it: the plan
// evaluates Y one unit past the window's last (ROADMAP item 18(d)).
func TestBeforeGroupingKeepsLastGroup(t *testing.T) {
	env, _ := env1987(t)
	for _, tc := range []struct {
		from, to chronology.Civil
		week     interval.Interval
	}{
		{d(1980, 10, 12), d(1980, 10, 31), interval.Interval{Lo: -2264, Hi: -2258}}, // 1980-10-20..26
		{d(1993, 1, 1), d(1993, 2, 28), interval.Interval{Lo: 2245, Hi: 2251}},      // 1993-02-22..28
	} {
		cal, err := Evaluate(env, expr(t, "[n]/WEEKS:<:MONTHS"), tc.from, tc.to)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(cal.Flatten().Intervals(), tc.week) {
			t.Fatalf("[n]/WEEKS:<:MONTHS over %v..%v = %v, missing the week %v", tc.from, tc.to, cal, tc.week)
		}
	}
}
