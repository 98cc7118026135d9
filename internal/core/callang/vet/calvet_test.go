package calvet_test

import (
	"strings"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	calvet "calsys/internal/core/callang/vet"
	"calsys/internal/core/interval"
)

func mustScript(t *testing.T, src string) *callang.Script {
	t.Helper()
	s, err := callang.ParseDerivation(src)
	if err != nil {
		t.Fatalf("ParseDerivation(%q): %v", src, err)
	}
	return s
}

func vet(t *testing.T, src string, cat calvet.Catalog, opts calvet.Options) calvet.Diags {
	t.Helper()
	if cat == nil {
		cat = &calvet.MapCatalog{}
	}
	return calvet.AnalyzeScript(mustScript(t, src), cat, opts)
}

// codes collects the diagnostic codes in order.
func codes(ds calvet.Diags) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Code
	}
	return out
}

func wantCode(t *testing.T, ds calvet.Diags, code string) calvet.Diag {
	t.Helper()
	for _, d := range ds {
		if d.Code == code {
			return d
		}
	}
	t.Fatalf("no %s diagnostic in:\n%s", code, ds)
	return calvet.Diag{}
}

func wantNoCode(t *testing.T, ds calvet.Diags, code string) {
	t.Helper()
	for _, d := range ds {
		if d.Code == code {
			t.Fatalf("unexpected %s diagnostic: %s", code, d)
		}
	}
}

func TestUndefinedReference(t *testing.T) {
	ds := vet(t, "NOPE:during:MONTHS", nil, calvet.Options{})
	d := wantCode(t, ds, calvet.CodeUndefinedRef)
	if d.Severity != calvet.Error {
		t.Errorf("severity = %v, want error", d.Severity)
	}
	if !strings.Contains(d.Msg, `"NOPE"`) {
		t.Errorf("message should name the reference: %s", d.Msg)
	}
	if d.Pos.Line != 1 || d.Pos.Col != 1 {
		t.Errorf("pos = %v, want 1:1", d.Pos)
	}
	if !ds.HasErrors() {
		t.Error("undefined reference must be an error")
	}
}

func TestKnownReferences(t *testing.T) {
	cat := &calvet.MapCatalog{Kinds: map[string]chronology.Granularity{"Mondays": chronology.Day}}
	for _, src := range []string{
		"DAYS:during:WEEKS",
		"Mondays:during:MONTHS",
		"{x = [2]/DAYS:during:WEEKS; return (x);}",
		`generate(DAYS, WEEKS, "1993-01-04", "1993-01-04")`,
	} {
		if ds := vet(t, src, cat, calvet.Options{}); ds.HasErrors() {
			t.Errorf("%s: unexpected errors:\n%s", src, ds.Errors())
		}
	}
}

func TestUnknownFunction(t *testing.T) {
	ds := vet(t, "frobnicate(DAYS)", nil, calvet.Options{})
	d := wantCode(t, ds, calvet.CodeUndefinedRef)
	if !strings.Contains(d.Msg, "frobnicate") {
		t.Errorf("message should name the function: %s", d.Msg)
	}
}

func TestSelfCycle(t *testing.T) {
	ds := vet(t, "PAYDAYS:during:MONTHS", nil, calvet.Options{SelfName: "PAYDAYS"})
	d := wantCode(t, ds, calvet.CodeCycle)
	if d.Severity != calvet.Error {
		t.Errorf("severity = %v, want error", d.Severity)
	}
	if !strings.Contains(d.Msg, "PAYDAYS → PAYDAYS") {
		t.Errorf("cycle message should show the path: %s", d.Msg)
	}
	// The self reference must not double-report as undefined.
	wantNoCode(t, ds, calvet.CodeUndefinedRef)
}

func TestCatalogCycle(t *testing.T) {
	cat := &calvet.MapCatalog{
		Scripts: map[string]*callang.Script{
			"B": mustScript(t, "C:during:MONTHS"),
			"C": mustScript(t, "A:during:YEARS"),
		},
		Kinds: map[string]chronology.Granularity{
			"B": chronology.Day, "C": chronology.Day, "A": chronology.Day,
		},
	}
	ds := vet(t, "B:during:WEEKS", cat, calvet.Options{SelfName: "A"})
	d := wantCode(t, ds, calvet.CodeCycle)
	if !strings.Contains(d.Msg, "A → B → C → A") {
		t.Errorf("cycle message should carry the full path, got: %s", d.Msg)
	}
	if d.Pos.Line != 1 || d.Pos.Col != 1 {
		t.Errorf("cycle should anchor at the reference entering it, got %v", d.Pos)
	}
}

func TestCatalogCycleAmongExisting(t *testing.T) {
	// A cycle wholly inside the catalog (not through SelfName) still
	// surfaces when the vetted script reaches it.
	cat := &calvet.MapCatalog{
		Scripts: map[string]*callang.Script{
			"X": mustScript(t, "Y:during:MONTHS"),
			"Y": mustScript(t, "X:during:YEARS"),
		},
		Kinds: map[string]chronology.Granularity{
			"X": chronology.Day, "Y": chronology.Day,
		},
	}
	ds := vet(t, "X:during:WEEKS", cat, calvet.Options{SelfName: "NEW"})
	d := wantCode(t, ds, calvet.CodeCycle)
	if !strings.Contains(d.Msg, "X → Y → X") {
		t.Errorf("cycle path = %s", d.Msg)
	}
}

func TestZeroLabelSelection(t *testing.T) {
	// 0/DAYS addresses raw tick 0, which the no-zero convention excludes.
	ds := vet(t, "0/DAYS:during:MONTHS", nil, calvet.Options{})
	d := wantCode(t, ds, calvet.CodeZeroIndex)
	if d.Severity != calvet.Error {
		t.Errorf("severity = %v, want error", d.Severity)
	}
	// 0/YEARS is a label (year 0 is debatable but not a tick); month-or-
	// coarser labels are not raw ticks, so no CV004.
	wantNoCode(t, vet(t, "1993/YEARS", nil, calvet.Options{}), calvet.CodeZeroIndex)
}

func TestZeroSelectionIndexProgrammatic(t *testing.T) {
	// The parser rejects [0] at parse time; scripts built programmatically
	// (or a future front end) still get the Define-time diagnostic.
	e := &callang.SelectExpr{
		Pred: calendar.SelectIndex(0),
		X: &callang.ForeachExpr{
			X:      &callang.Ident{Name: "DAYS"},
			Op:     interval.During,
			Strict: true,
			Y:      &callang.Ident{Name: "WEEKS"},
		},
		Pos: callang.Pos{Line: 1, Col: 1},
	}
	ds := calvet.AnalyzeScript(callang.ExprScript(e), &calvet.MapCatalog{}, calvet.Options{})
	d := wantCode(t, ds, calvet.CodeZeroIndex)
	if d.Severity != calvet.Error {
		t.Errorf("severity = %v, want error", d.Severity)
	}

	rng := &callang.SelectExpr{
		Pred: calendar.SelectRange(0, 3),
		X:    &callang.Ident{Name: "DAYS"},
	}
	wantCode(t, calvet.AnalyzeScript(callang.ExprScript(rng), &calvet.MapCatalog{}, calvet.Options{}), calvet.CodeZeroIndex)

	empty := &callang.SelectExpr{Pred: calendar.Selection{}, X: &callang.Ident{Name: "DAYS"}}
	d = wantCode(t, calvet.AnalyzeScript(callang.ExprScript(empty), &calvet.MapCatalog{}, calvet.Options{}), calvet.CodeBadSelection)
	if d.Severity != calvet.Error {
		t.Errorf("empty selection severity = %v, want error", d.Severity)
	}
}

func TestZeroTickInCalls(t *testing.T) {
	wantCode(t, vet(t, "interval(0, 5, DAYS)", nil, calvet.Options{}), calvet.CodeZeroIndex)
	wantCode(t, vet(t, "points(0)", nil, calvet.Options{}), calvet.CodeZeroIndex)
	wantNoCode(t, vet(t, "interval(-5, 5, DAYS)", nil, calvet.Options{}), calvet.CodeZeroIndex)
}

func TestSelectionOutOfRange(t *testing.T) {
	// A week holds at most 7 days: [8] can never select anything. The
	// symbolic calculus proves the bound exactly, so the diagnostic is the
	// CV012 proof rather than the CV005 heuristic.
	d := wantCode(t, vet(t, "[8]/DAYS:during:WEEKS", nil, calvet.Options{}), calvet.CodeSelectCard)
	if d.Severity != calvet.Warning {
		t.Errorf("severity = %v, want warning", d.Severity)
	}
	wantCode(t, vet(t, "[-8]/DAYS:during:WEEKS", nil, calvet.Options{}), calvet.CodeSelectCard)
	wantCode(t, vet(t, "[8-9]/DAYS:during:WEEKS", nil, calvet.Options{}), calvet.CodeSelectCard)
	wantCode(t, vet(t, "[32]/DAYS:during:MONTHS", nil, calvet.Options{}), calvet.CodeSelectCard)

	// In-range, negative and n-indices are fine.
	for _, src := range []string{
		"[7]/DAYS:during:WEEKS",
		"[-1]/DAYS:during:WEEKS",
		"[n]/DAYS:during:MONTHS",
		"[31]/DAYS:during:MONTHS",
		"[2]/DAYS:during:WEEKS",
	} {
		diags := vet(t, src, nil, calvet.Options{})
		wantNoCode(t, diags, calvet.CodeBadSelection)
		wantNoCode(t, diags, calvet.CodeSelectCard)
	}

	// Overlaps admits straddling units: a month overlaps up to 6 weeks,
	// and ordering operators have no per-group bound at all.
	wantNoCode(t, vet(t, "[6]/WEEKS:overlaps:MONTHS", nil, calvet.Options{}), calvet.CodeBadSelection)
	wantNoCode(t, vet(t, "[6]/WEEKS:overlaps:MONTHS", nil, calvet.Options{}), calvet.CodeSelectCard)
	wantNoCode(t, vet(t, "[50]/DAYS:<:MONTHS", nil, calvet.Options{}), calvet.CodeBadSelection)
	wantNoCode(t, vet(t, "[50]/DAYS:<:MONTHS", nil, calvet.Options{}), calvet.CodeSelectCard)
}

func TestSelectionStaticallyEmptyRange(t *testing.T) {
	d := wantCode(t, vet(t, "[5-2]/DAYS:during:WEEKS", nil, calvet.Options{}), calvet.CodeBadSelection)
	if !strings.Contains(d.Msg, "statically empty") {
		t.Errorf("msg = %s", d.Msg)
	}
	// -5 - -2 resolves to an ascending index range; not empty.
	wantNoCode(t, vet(t, "[-5--2]/DAYS:during:WEEKS", nil, calvet.Options{}), calvet.CodeBadSelection)
}

func TestGranularityMismatch(t *testing.T) {
	d := wantCode(t, vet(t, "WEEKS + MONTHS", nil, calvet.Options{}), calvet.CodeGranMismatch)
	if d.Severity != calvet.Warning {
		t.Errorf("severity = %v, want warning", d.Severity)
	}
	wantCode(t, vet(t, "DAYS:intersects:WEEKS", nil, calvet.Options{}), calvet.CodeGranMismatch)
	wantNoCode(t, vet(t, "WEEKS + WEEKS", nil, calvet.Options{}), calvet.CodeGranMismatch)

	// A during-foreach with a coarser left side is always empty.
	wantCode(t, vet(t, "MONTHS:during:DAYS", nil, calvet.Options{}), calvet.CodeGranMismatch)
	// Finer-left during and mixed-granularity relaxed foreach are the
	// paper's bread and butter: no diagnostic.
	wantNoCode(t, vet(t, "WEEKS:during:MONTHS", nil, calvet.Options{}), calvet.CodeGranMismatch)
	wantNoCode(t, vet(t, "WEEKS.overlaps.MONTHS", nil, calvet.Options{}), calvet.CodeGranMismatch)
}

func TestDeadCode(t *testing.T) {
	ds := vet(t, "{x = DAYS:during:WEEKS; return (WEEKS);}", nil, calvet.Options{})
	d := wantCode(t, ds, calvet.CodeDeadCode)
	if !strings.Contains(d.Msg, `"x"`) {
		t.Errorf("msg should name the temp: %s", d.Msg)
	}

	ds = vet(t, "{return (DAYS); y = WEEKS;}", nil, calvet.Options{})
	found := 0
	for _, d := range ds {
		if d.Code == calvet.CodeDeadCode {
			found++
		}
	}
	if found != 2 { // unreachable statement + unused y
		t.Errorf("want 2 CV006 diagnostics (unreachable + unused), got %d:\n%s", found, ds)
	}

	wantNoCode(t, vet(t, "{x = DAYS:during:WEEKS; return (x);}", nil, calvet.Options{}), calvet.CodeDeadCode)
}

func TestWhileNoProgress(t *testing.T) {
	// Body never assigns the condition's temporary.
	src := "{x = [1]/DAYS:during:WEEKS; while (x:intersects:MONTHS) { y = x; } return (x);}"
	wantCode(t, vet(t, src, nil, calvet.Options{}), calvet.CodeLoopNoProgress)

	// Condition references no temporaries and no clock.
	wantCode(t, vet(t, "{while (DAYS:during:MONTHS) ; return (DAYS);}", nil, calvet.Options{}),
		calvet.CodeLoopNoProgress)

	// The paper's wait loop: `today` drives progress — no CV007.
	wait := "{temp = 24/DAYS:during:MONTHS; while (today:<:temp) ; return (temp);}"
	wantNoCode(t, vet(t, wait, nil, calvet.Options{}), calvet.CodeLoopNoProgress)

	// Body reassigns the condition's temporary — progress is possible.
	ok := "{x = [1]/DAYS:during:WEEKS; while (x:intersects:MONTHS) { x = [2]/DAYS:during:WEEKS; } return (x);}"
	wantNoCode(t, vet(t, ok, nil, calvet.Options{}), calvet.CodeLoopNoProgress)
}

func TestVolatile(t *testing.T) {
	d := wantCode(t, vet(t, "{return (today:during:MONTHS);}", nil, calvet.Options{}), calvet.CodeVolatile)
	if d.Severity != calvet.Warning {
		t.Errorf("severity = %v, want warning", d.Severity)
	}

	// Volatility is transitive through the catalog.
	cat := &calvet.MapCatalog{
		Scripts: map[string]*callang.Script{"NOW": mustScript(t, "today:during:DAYS")},
		Kinds:   map[string]chronology.Granularity{"NOW": chronology.Day},
	}
	wantCode(t, vet(t, "NOW:during:MONTHS", cat, calvet.Options{}), calvet.CodeVolatile)
	// A temporary shadows the catalog's calendar of the same name, as in the
	// compiler — from its assignment on.
	wantNoCode(t, vet(t, "{NOW = DAYS:during:WEEKS; return (NOW);}", cat, calvet.Options{}), calvet.CodeVolatile)
	if d := wantCode(t, vet(t, "{x = NOW; NOW = DAYS:during:WEEKS; return (x);}", cat, calvet.Options{}), calvet.CodeVolatile); d.Pos.Col != 6 {
		t.Errorf("CV008 at %v, want the read of NOW at 1:6", d.Pos)
	}

	wantNoCode(t, vet(t, "DAYS:during:MONTHS", nil, calvet.Options{}), calvet.CodeVolatile)
}

func TestFactorizationBlocked(t *testing.T) {
	// (DAYS:<:WEEKS):<=:[1]/WEEKS matches the §3.4 rule's preconditions but
	// mixes `<` with `<=`: the rewrite is withheld and CV009 flags it.
	ds := vet(t, "(DAYS:<:WEEKS):<=:[1]/WEEKS", nil, calvet.Options{})
	wantCode(t, ds, calvet.CodeFactorBlocked)

	// ≤/≤ is the sanctioned reduction — no diagnostic.
	wantNoCode(t, vet(t, "(DAYS:<=:WEEKS):<=:[1]/WEEKS", nil, calvet.Options{}), calvet.CodeFactorBlocked)
	// Non-ordering operators factorize normally — no diagnostic.
	wantNoCode(t, vet(t, "([2]/(DAYS:during:WEEKS)):during:[1]/WEEKS", nil, calvet.Options{}), calvet.CodeFactorBlocked)
}

func TestDiagnosticOrderingAndRendering(t *testing.T) {
	src := "{x = NOPE:during:MONTHS;\nreturn (ALSO_NOPE:during:WEEKS);}"
	ds := vet(t, src, nil, calvet.Options{})
	if len(ds) < 2 {
		t.Fatalf("want ≥2 diagnostics, got:\n%s", ds)
	}
	for i := 1; i < len(ds); i++ {
		if ds[i-1].Pos.Line > ds[i].Pos.Line {
			t.Errorf("diagnostics not sorted by position:\n%s", ds)
		}
	}
	rendered := wantCode(t, ds, calvet.CodeUndefinedRef).String()
	if !strings.Contains(rendered, "error CV001:") || !strings.Contains(rendered, "1:") {
		t.Errorf("rendered diag = %q", rendered)
	}
	if got := len(ds.Errors()) + len(ds.Warnings()); got != len(ds) {
		t.Errorf("Errors+Warnings = %d, want %d", got, len(ds))
	}
}

func TestParseAndAnalyze(t *testing.T) {
	ds := calvet.ParseAndAnalyze("NOPE:during:", &calvet.MapCatalog{}, calvet.Options{})
	if !ds.HasErrors() {
		t.Fatal("parse failure should surface as an error diagnostic")
	}
	ds = calvet.ParseAndAnalyze("[2]/DAYS:during:WEEKS", &calvet.MapCatalog{}, calvet.Options{})
	if ds.HasErrors() {
		t.Fatalf("unexpected errors:\n%s", ds)
	}
}

func TestCodesAreStable(t *testing.T) {
	got := map[string]string{
		calvet.CodeUndefinedRef:   "CV001",
		calvet.CodeCycle:          "CV002",
		calvet.CodeGranMismatch:   "CV003",
		calvet.CodeZeroIndex:      "CV004",
		calvet.CodeBadSelection:   "CV005",
		calvet.CodeDeadCode:       "CV006",
		calvet.CodeLoopNoProgress: "CV007",
		calvet.CodeVolatile:       "CV008",
		calvet.CodeFactorBlocked:  "CV009",
	}
	for c, want := range got {
		if c != want {
			t.Errorf("code %s drifted from %s", c, want)
		}
	}
	_ = codes // silence unused helper when tests above change
}
