package callang

import (
	"strings"
	"testing"

	"calsys/internal/chronology"
)

func parseScriptMap(t *testing.T, defs map[string]string) ScriptMap {
	t.Helper()
	m := ScriptMap{}
	for name, src := range defs {
		m[name] = mustScript(t, src)
	}
	return m
}

// Example 1 of §3.4: "Mondays during January 1993".
//
//	{Mondays : during : Januarys : during : 1993/YEARS}
//
// inlines to
//
//	{([1]/DAYS:during:WEEKS) : during : ([1]/MONTHS:during:YEARS) : during : 1993/YEARS}
//
// and factorizes to
//
//	{([1]/DAYS:during:WEEKS) : during : [1]/MONTHS : during : 1993/YEARS}
func TestFigure2Factorization(t *testing.T) {
	scripts := parseScriptMap(t, map[string]string{
		"Mondays":  "[1]/DAYS:during:WEEKS;",
		"Januarys": "[1]/MONTHS:during:YEARS;",
	})
	e := mustExpr(t, "Mondays:during:Januarys:during:1993/YEARS")
	inlined, err := Inline(e, scripts, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantInitial := "([1]/(DAYS:during:WEEKS)):during:(([1]/(MONTHS:during:YEARS)):during:(1993/YEARS))"
	if inlined.String() != wantInitial {
		t.Errorf("inlined = %s\nwant      %s", inlined, wantInitial)
	}
	if NodeCount(inlined) != 12 {
		t.Errorf("initial node count = %d", NodeCount(inlined))
	}

	factored := Factorize(inlined, KindMap{})
	wantFactored := "([1]/(DAYS:during:WEEKS)):during:([1]/(MONTHS:during:(1993/YEARS)))"
	if factored.String() != wantFactored {
		t.Errorf("factored = %s\nwant       %s", factored, wantFactored)
	}
	if NodeCount(factored) >= NodeCount(inlined) {
		t.Errorf("factorization should shrink the tree: %d -> %d",
			NodeCount(inlined), NodeCount(factored))
	}
}

// Example 2 of §3.4: "Third week in January 1993".
//
//	{Third_Weeks : during : Januarys : during : 1993/YEARS}
//
// with Third_Weeks = [3]/WEEKS:overlaps:MONTHS factorizes in two steps to
//
//	{[3]/WEEKS : overlaps : [1]/MONTHS : during : 1993/YEARS}
func TestFigure3Factorization(t *testing.T) {
	scripts := parseScriptMap(t, map[string]string{
		"Third_Weeks": "[3]/WEEKS:overlaps:MONTHS;",
		"Januarys":    "[1]/MONTHS:during:YEARS;",
	})
	e := mustExpr(t, "Third_Weeks:during:Januarys:during:1993/YEARS")
	inlined, err := Inline(e, scripts, nil)
	if err != nil {
		t.Fatal(err)
	}
	factored := Factorize(inlined, KindMap{})
	want := "[3]/(WEEKS:overlaps:([1]/(MONTHS:during:(1993/YEARS))))"
	if factored.String() != want {
		t.Errorf("factored = %s\nwant       %s", factored, want)
	}
	// The selection wrapper [3]/ survived the rewrite at the outer level.
	if _, ok := factored.(*SelectExpr); !ok {
		t.Errorf("root = %T, want selection", factored)
	}
}

func TestFactorizeRequiresMatchingGranularity(t *testing.T) {
	// gran(WEEKS) != gran([1]/MONTHS:during:1993/YEARS): no rewrite.
	e := mustExpr(t, "([1]/DAYS:during:WEEKS):during:([1]/MONTHS:during:1993/YEARS)")
	factored := Factorize(e, KindMap{})
	if factored.String() != e.String() {
		t.Errorf("expression should not factorize further: %s -> %s", e, factored)
	}
}

func TestFactorizeRequiresSubset(t *testing.T) {
	// Z = OTHER_YEARS has the right granularity but is not derived from
	// YEARS, so Z ∈ Y fails and no rewrite happens.
	kinds := KindMap{"OTHER_YEARS": chronology.Year}
	e := mustExpr(t, "(MONTHS:during:YEARS):during:OTHER_YEARS")
	factored := Factorize(e, kinds)
	if factored.String() != e.String() {
		t.Errorf("unexpected rewrite: %s -> %s", e, factored)
	}
}

func TestFactorizeSubsetThroughOperators(t *testing.T) {
	// Z derived from Y by selection, label selection, during-foreach and
	// intersects all satisfy Z ∈ Y.
	cases := []string{
		"(MONTHS:during:YEARS):during:([2]/YEARS)",
		"(MONTHS:during:YEARS):during:(1993/YEARS)",
		"(MONTHS:during:YEARS):during:(YEARS:during:DECADES)",
		"(MONTHS:during:YEARS):during:(YEARS:intersects:YEARS)",
		"(MONTHS:during:YEARS):during:(YEARS.overlaps.DECADES)",
	}
	for _, src := range cases {
		e := mustExpr(t, src)
		factored := Factorize(e, KindMap{})
		if strings.Contains(factored.String(), ":during:YEARS)") {
			t.Errorf("%q did not factorize: %s", src, factored)
		}
	}
	// Strict overlaps trims elements, so it does not preserve membership.
	e := mustExpr(t, "(MONTHS:during:YEARS):during:(YEARS:overlaps:DECADES)")
	if got := Factorize(e, KindMap{}); got.String() != e.String() {
		t.Errorf("strict overlaps should not satisfy subset: %s", got)
	}
}

func TestFactorizeBeforeEqualsException(t *testing.T) {
	// The paper: "except when Op1 is <= and Op2 is <=. In the latter case,
	// the expression is reduced to {X : Op2 : Z}".
	e := mustExpr(t, "(DAYS:<=:YEARS):<=:(1993/YEARS)")
	factored := Factorize(e, KindMap{})
	want := "DAYS:<=:(1993/YEARS)"
	if factored.String() != want {
		t.Errorf("factored = %s, want %s", factored, want)
	}
}

func TestFactorizeNestedUnderSetOps(t *testing.T) {
	e := mustExpr(t, "((MONTHS:during:YEARS):during:(1993/YEARS)) + ((MONTHS:during:YEARS):during:(1994/YEARS))")
	factored := Factorize(e, KindMap{})
	want := "(MONTHS:during:(1993/YEARS)) + (MONTHS:during:(1994/YEARS))"
	if factored.String() != want {
		t.Errorf("factored = %s\nwant       %s", factored, want)
	}
}

// The rewrite keeps a grouping's elements, not how they nest — through a
// selection wrapper it drops the outer grouping — so a selection's subject is
// not rewritten: [n]/ of each month's first day is that day, month by month,
// not the last element of one flat list.
func TestFactorizeKeepsSelectionSubject(t *testing.T) {
	inner := "([1]/(DAYS:during:MONTHS)):during:MONTHS"
	if got := Factorize(mustExpr(t, inner), KindMap{}); got.String() != "[1]/(DAYS:during:MONTHS)" {
		t.Fatalf("the rule no longer fires on %s: %s", inner, got)
	}
	for _, src := range []string{"[n]/(" + inner + ")", "([n]/(" + inner + ")) + WEEKS"} {
		e := mustExpr(t, src)
		if got := Factorize(e, KindMap{}); got.String() != e.String() {
			t.Errorf("selection subject rewritten: %s -> %s", e, got)
		}
	}
	// Below the subject the rule still applies.
	e := mustExpr(t, "[n]/(((MONTHS:during:YEARS):during:(1993/YEARS)):during:DECADES)")
	if got, want := Factorize(e, KindMap{}).String(), "[n]/((MONTHS:during:(1993/YEARS)):during:DECADES)"; got != want {
		t.Errorf("factored = %s, want %s", got, want)
	}
}

func TestInlineOpaqueAndMissing(t *testing.T) {
	scripts := parseScriptMap(t, map[string]string{
		// Branches: opaque, a reference stays a reference.
		"EMP_DAYS": "{x = [n]/DAYS:during:MONTHS; if (x:intersects:HOLIDAYS) return (x - HOLIDAYS); return (x);}",
		// Straight-line: an expression, inlined like a one-statement one.
		"EOM": "{x = [n]/DAYS:during:MONTHS; return (x);}",
	})
	e := mustExpr(t, "EMP_DAYS:during:1993/YEARS")
	inlined, err := Inline(e, scripts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inlined.String() != e.String() {
		t.Errorf("opaque derivation should not inline: %s", inlined)
	}
	inlined, err = Inline(mustExpr(t, "EOM:during:MISSING"), scripts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := "([n]/(DAYS:during:MONTHS)):during:MISSING"; inlined.String() != want {
		t.Errorf("straight-line derivation: got %s, want %s", inlined, want)
	}
	// A script temporary in scope hides the catalog calendar of its name.
	inlined, err = Inline(mustExpr(t, "EOM + x"), scripts, map[string]bool{"EOM": true})
	if err != nil {
		t.Fatal(err)
	}
	if inlined.String() != "EOM + x" {
		t.Errorf("shadowed name was inlined: %s", inlined)
	}
}

func TestInlineDetectsRecursion(t *testing.T) {
	scripts := parseScriptMap(t, map[string]string{
		"A": "B:during:YEARS;",
		"B": "A:during:YEARS;",
	})
	if _, err := Inline(mustExpr(t, "A"), scripts, nil); err == nil {
		t.Error("mutually recursive derivations should fail")
	}
	self := parseScriptMap(t, map[string]string{"S": "S:during:YEARS;"})
	if _, err := Inline(mustExpr(t, "S"), self, nil); err == nil {
		t.Error("self-recursive derivation should fail")
	}
}

func TestElemKind(t *testing.T) {
	kinds := KindMap{"HOLIDAYS": chronology.Day, "Expiration-Month": chronology.Month}
	cases := map[string]chronology.Granularity{
		"WEEKS":                        chronology.Week,
		"[3]/WEEKS:overlaps:MONTHS":    chronology.Week,
		"1993/YEARS":                   chronology.Year,
		"HOLIDAYS":                     chronology.Day,
		"HOLIDAYS + HOLIDAYS":          chronology.Day,
		"HOLIDAYS:intersects:HOLIDAYS": chronology.Day,
		"generate(YEARS, DAYS, A, B)":  chronology.Year,
		"[1]/MONTHS:during:1993/YEARS": chronology.Month,
	}
	for src, want := range cases {
		g, ok := ElemKind(mustExpr(t, src), kinds)
		if !ok || g != want {
			t.Errorf("ElemKind(%q) = %v,%v, want %v", src, g, ok, want)
		}
	}
	if _, ok := ElemKind(mustExpr(t, "mystery"), kinds); ok {
		t.Error("unknown ident should have no kind")
	}
	if _, ok := ElemKind(mustExpr(t, "caloperate(MONTHS, 3)"), kinds); ok {
		t.Error("caloperate result kind is unknown")
	}
}

func TestAnalyze(t *testing.T) {
	kinds := KindMap{"HOLIDAYS": chronology.Day}
	e := mustExpr(t, "([1]/DAYS:during:WEEKS):during:([1]/MONTHS:during:(1993/YEARS)) - HOLIDAYS")
	a := Analyze(e, kinds)
	if a.TickGran != chronology.Day {
		t.Errorf("TickGran = %v", a.TickGran)
	}
	if len(a.Shared) != 0 {
		t.Errorf("Shared = %v", a.Shared)
	}
	e = mustExpr(t, "(DAYS:during:MONTHS) + (DAYS:during:WEEKS)")
	a = Analyze(e, kinds)
	if len(a.Shared) != 1 || a.Shared[0] != "DAYS" {
		t.Errorf("Shared = %v (DAYS occurs twice)", a.Shared)
	}
	e = mustExpr(t, "mystery:during:WEEKS")
	a = Analyze(e, kinds)
	if len(a.Unknown) != 1 || a.Unknown[0] != "mystery" {
		t.Errorf("Unknown = %v", a.Unknown)
	}
}

func TestAnalyzeScript(t *testing.T) {
	kinds := KindMap{"HOLIDAYS": chronology.Day, "AM_BUS_DAYS": chronology.Day}
	s := mustScript(t, `{LDOM = [n]/DAYS:during:MONTHS;
		LDOM_HOL = LDOM:intersects:HOLIDAYS;
		LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;
		return (LDOM - LDOM_HOL + LAST_BUS_DAY);}`)
	a := AnalyzeScript(s, kinds)
	if a.TickGran != chronology.Day {
		t.Errorf("TickGran = %v", a.TickGran)
	}
	// LDOM and LDOM_HOL are script temporaries, not external references.
	for _, name := range []string{"LDOM", "LDOM_HOL", "LAST_BUS_DAY"} {
		if _, ok := a.Refs[name]; ok {
			t.Errorf("temporary %s counted as external reference", name)
		}
	}
	if a.Refs["DAYS"] != 1 || a.Refs["HOLIDAYS"] != 1 || a.Refs["AM_BUS_DAYS"] != 1 {
		t.Errorf("Refs = %v", a.Refs)
	}
}

func TestAnalyzeDefaultsToDays(t *testing.T) {
	a := Analyze(mustExpr(t, "mystery"), KindMap{})
	if a.TickGran != chronology.Day {
		t.Errorf("default TickGran = %v, want DAYS", a.TickGran)
	}
}
