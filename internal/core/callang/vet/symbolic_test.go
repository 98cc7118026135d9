package calvet_test

import (
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/callang"
	calvet "calsys/internal/core/callang/vet"
)

// The golden suite pins the exact rendering — position, severity, code,
// message — of every symbolic-calculus diagnostic, so wire formats and CLI
// output stay stable.
func TestSymbolicDiagnosticsGolden(t *testing.T) {
	cat := &calvet.MapCatalog{
		Scripts: map[string]*callang.Script{
			"Mondays":  mustScript(t, "[1]/DAYS:during:WEEKS;"),
			"Weekdays": mustScript(t, "[1-5]/DAYS:during:WEEKS;"),
		},
		Kinds: map[string]chronology.Granularity{
			"Mondays":  chronology.Day,
			"Weekdays": chronology.Day,
		},
	}
	cases := []struct {
		name string
		src  string
		self string
		want string
	}{
		{
			name: "CV010 empty difference",
			src:  "DAYS - DAYS;",
			want: "1:6: warning CV010: calendar expression is provably empty on every window",
		},
		{
			name: "CV010 coarse minus covering fine",
			src:  "MONTHS - DAYS;",
			want: "1:8: warning CV010: calendar expression is provably empty on every window",
		},
		{
			name: "CV011 equivalent definition",
			src:  "[1]/DAYS.during.WEEKS;",
			self: "WeekStarts",
			want: "1:1: warning CV011: expression is equivalent to the existing calendar Mondays; consider referencing it instead of redefining the set",
		},
		{
			name: "CV012 index beyond exact cardinality",
			src:  "[8]/DAYS:during:WEEKS;",
			want: "1:1: warning CV012: selection index 8 provably never selects: groups of the subject hold between 7 and 7 elements on every window",
		},
		{
			name: "CV012 range beyond exact cardinality",
			src:  "[32-35]/DAYS:during:MONTHS;",
			want: "1:1: warning CV012: selection range 32-35 provably never selects: groups of the subject hold between 28 and 31 elements on every window",
		},
		{
			name: "CV013 identical arms",
			src:  "([1]/DAYS:during:WEEKS) + ([1]/DAYS:during:WEEKS);",
			want: "1:25: warning CV013: both arms of \"+\" denote the same calendar; drop either arm",
		},
		{
			name: "CV013 right arm subsumed",
			src:  "(DAYS:during:WEEKS) + ([2]/DAYS:during:WEEKS);",
			want: "1:21: warning CV013: right arm of \"+\" is subsumed: every element of [2]/(DAYS:during:WEEKS) is already in DAYS:during:WEEKS",
		},
		{
			name: "CV013 left arm subsumed",
			src:  "([2]/DAYS:during:WEEKS) + (DAYS:during:WEEKS);",
			want: "1:25: warning CV013: left arm of \"+\" is subsumed: every element of [2]/(DAYS:during:WEEKS) is already in DAYS:during:WEEKS",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := vet(t, tc.src, cat, calvet.Options{SelfName: tc.self})
			for _, d := range ds {
				if d.String() == tc.want {
					return
				}
			}
			t.Fatalf("missing diagnostic.\nwant: %s\ngot:\n%s", tc.want, ds)
		})
	}
}

// The calculus must never flag live definitions: CV010–CV013 are proofs, so
// any false positive is a bug, not a tuning matter.
func TestSymbolicDiagnosticsNoFalsePositives(t *testing.T) {
	cat := &calvet.MapCatalog{
		Scripts: map[string]*callang.Script{
			"Mondays": mustScript(t, "[1]/DAYS:during:WEEKS;"),
		},
		Kinds: map[string]chronology.Granularity{"Mondays": chronology.Day},
	}
	for _, src := range []string{
		"DAYS;",
		"DAYS - Mondays;",
		"([1]/DAYS:during:WEEKS) + ([2]/DAYS:during:WEEKS);",
		"[7]/DAYS:during:WEEKS;",
		"[28]/DAYS:during:MONTHS;",
		"[2]/DAYS.during.WEEKS;", // Tuesdays ≠ Mondays
		"Mondays + ([2]/DAYS:during:WEEKS);",
		"WEEKS:overlaps:MONTHS;",
	} {
		ds := vet(t, src, cat, calvet.Options{SelfName: "Probe"})
		for _, code := range []string{
			calvet.CodeEmptyCalendar, calvet.CodeEquivalentDef,
			calvet.CodeSelectCard, calvet.CodeSubsumedArm,
		} {
			wantNoCode(t, ds, code)
		}
	}
}

// CV011 must be granularity-blind: a definition written over hours that
// covers exactly the Mondays day set keys identically.
func TestEquivalenceAcrossGranularities(t *testing.T) {
	cat := &calvet.MapCatalog{
		Scripts: map[string]*callang.Script{
			"Mondays": mustScript(t, "[1]/DAYS:during:WEEKS;"),
			"AllDays": mustScript(t, "DAYS:during:WEEKS;"),
		},
		Kinds: map[string]chronology.Granularity{
			"Mondays": chronology.Day,
			"AllDays": chronology.Day,
		},
	}
	d := wantCode(t, vet(t, "DAYS;", cat, calvet.Options{SelfName: "Everyday"}), calvet.CodeEquivalentDef)
	if d.Msg != "expression is equivalent to the existing calendar AllDays; consider referencing it instead of redefining the set" {
		t.Errorf("unexpected CV011 message: %s", d.Msg)
	}
}

func TestAnalyzeCatalog(t *testing.T) {
	cat := &calvet.MapCatalog{
		Scripts: map[string]*callang.Script{
			"Mondays":    mustScript(t, "[1]/DAYS:during:WEEKS;"),
			"WeekStarts": mustScript(t, "[1]/DAYS.during.WEEKS;"),
			"Tuesdays":   mustScript(t, "[2]/DAYS:during:WEEKS;"),
			"AllDays":    mustScript(t, "DAYS:during:WEEKS;"),
			"Everyday":   mustScript(t, "DAYS;"),
			"Straight":   mustScript(t, "x = DAYS; return (x);"),
			"Opaque":     mustScript(t, "x = DAYS; if (x) return (x); return (WEEKS);"),
		},
		Kinds: map[string]chronology.Granularity{
			"Mondays": chronology.Day, "WeekStarts": chronology.Day,
			"Tuesdays": chronology.Day, "AllDays": chronology.Day,
			"Everyday": chronology.Day, "Straight": chronology.Day, "Opaque": chronology.Day,
		},
	}
	classes := calvet.AnalyzeCatalog(cat, calvet.Options{})
	if len(classes) != 2 {
		t.Fatalf("got %d classes, want 2: %v", len(classes), classes)
	}
	wantNames := [][]string{
		{"AllDays", "Everyday", "Straight"}, // a straight-line script is its expression
		{"Mondays", "WeekStarts"},
	}
	for i, c := range classes {
		if len(c.Names) != len(wantNames[i]) {
			t.Fatalf("class %d = %v, want %v", i, c.Names, wantNames[i])
		}
		for j, n := range c.Names {
			if n != wantNames[i][j] {
				t.Fatalf("class %d = %v, want %v", i, c.Names, wantNames[i])
			}
		}
	}
}
