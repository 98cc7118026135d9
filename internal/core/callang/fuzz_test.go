package callang_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"calsys/internal/chronology"
	"calsys/internal/core/callang"
	calvet "calsys/internal/core/callang/vet"
)

// FuzzParseAndVet asserts the whole front end is panic-free: arbitrary
// input either fails to parse with an error or parses into a script the
// static analyzer handles without crashing. CI runs a short fuzz smoke
// (`make fuzz-smoke`) on every push; `go test -fuzz=FuzzParseAndVet` digs
// deeper locally.
func FuzzParseAndVet(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	cat := &calvet.MapCatalog{
		Scripts: map[string]*callang.Script{},
		Kinds:   map[string]chronology.Granularity{"HOL": chronology.Day},
	}
	f.Fuzz(func(t *testing.T, src string) {
		script, err := callang.ParseDerivation(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		checkWalkLaws(t, script, nil)
		// Substitution ran when the script was parsed; what it yields is an
		// expression of the language: it re-parses from its rendering.
		if e, ok := script.AsExpr(); ok {
			if re, err := callang.ParseExpr(e.String()); err != nil || re.String() != e.String() {
				t.Fatalf("AsExpr of %q renders as %q, which re-parses as %v (%v)", src, e, re, err)
			}
		}
		diags := calvet.AnalyzeScript(script, cat, calvet.Options{SelfName: "FUZZ"})
		// Rendering must also be total.
		_ = diags.String()
		_ = script.String()
	})
}

// fuzzSeeds is FuzzParseAndVet's seed corpus; paperGoldens are the scripts
// and expressions of §3.3–§3.4. Together they hold every node type of the
// language, which TestWalkCoversEveryNode relies on.
var fuzzSeeds = []string{
	"[2]/DAYS:during:WEEKS",
	"{LDOM = [n]/DAYS:during:MONTHS; return (LDOM);}",
	"{while (today:<:temp2) ; return (temp2);}",
	"(DAYS:<:WEEKS):<=:[1]/WEEKS",
	"WEEKS.overlaps.Jan-1993",
	"generate(DAYS, WEEKS, \"1993-01-04\", \"1993-01-04\")",
	"1993/YEARS",
	"0/DAYS:during:MONTHS",
	"[5-2,-3,n]/DAYS:during:MONTHS",
	"A + B - C:intersects:D",
	"{if (A) { x = B; } else { x = C; } return (x);}",
	"caloperate(interval(1, 30, DAYS))",
	"((((((((((DAYS))))))))))",
	"{return (X); Y = Z;}",
	"{wd = [1,2,3,4,5]/DAYS:during:WEEKS; wd = wd - HOL; return (wd:intersects:caloperate(wd, 3));}",
	"-- comment\nDAYS",
}

var paperGoldens = []string{
	"Mondays:during:Januarys:during:1993/YEARS",
	"Third_Weeks:during:Januarys:during:1993/YEARS",
	`{LDOM = [n]/DAYS:during:MONTHS;
	LDOM_HOL = LDOM:intersects:HOLIDAYS;
	LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;
	return (LDOM - LDOM_HOL + LAST_BUS_DAY);}`,
	`{Fridays = [5]/DAYS:during:WEEKS;
	temp1 = [3]/Fridays:overlaps:Expiration-Month;
	if (temp1:intersects:HOLIDAYS)
		return([n]/AM_BUS_DAYS:<:temp1);
	else
		return(temp1);}`,
	`{ temp1 = [n]/AM_BUS_DAYS:during:Expiration-Month;
	temp2 = [-7]/AM_BUS_DAYS:<:temp1;
	while (today:<:temp2) ; /* do nothing */
	return ("LAST TRADING DAY");}`,
}

// checkWalkLaws asserts, for every node of every expression of a script, the
// laws that make Walk and MapChildren the one spelling of the tree's shape:
// Walk's visit sequence is the preorder a Children() recursion gives;
// MapChildren with the identity returns the node itself; MapChildren with a
// marker function yields a node of the same type and caption whose children
// are exactly the markers. It records the node types it met in seen.
func checkWalkLaws(t *testing.T, script *callang.Script, seen map[reflect.Type]bool) {
	t.Helper()
	var byChildren func(e callang.Expr, out []callang.Expr) []callang.Expr
	byChildren = func(e callang.Expr, out []callang.Expr) []callang.Expr {
		out = append(out, e)
		for _, c := range e.Children() {
			out = byChildren(c, out)
		}
		return out
	}
	stmts := 0
	callang.WalkStmts(script.Stmts, func(_ callang.Stmt, x callang.Expr) {
		stmts++
		var got []callang.Expr
		callang.Walk(x, func(e callang.Expr) { got = append(got, e) })
		if want := byChildren(x, nil); !slices.Equal(got, want) {
			t.Fatalf("Walk(%s) visits %v, Children() recursion %v", x, got, want)
		}
		for _, n := range got {
			if seen != nil {
				seen[reflect.TypeOf(n)] = true
			}
			if same := callang.MapChildren(n, func(c callang.Expr) callang.Expr { return c }); same != n {
				t.Fatalf("MapChildren(%s, identity) rebuilt the node", n)
			}
			var marks []callang.Expr
			marked := callang.MapChildren(n, func(callang.Expr) callang.Expr {
				marks = append(marks, &callang.Ident{Name: fmt.Sprintf("mark%d", len(marks))})
				return marks[len(marks)-1]
			})
			if len(marks) != len(n.Children()) || !slices.Equal(marked.Children(), marks) {
				t.Fatalf("MapChildren(%s, marker) has children %v, want the %d markers %v",
					n, marked.Children(), len(n.Children()), marks)
			}
			if reflect.TypeOf(marked) != reflect.TypeOf(n) || marked.Label() != n.Label() ||
				(len(marks) > 0) == (marked == n) {
				t.Fatalf("MapChildren(%s, marker) = %s: not a copy of the node around new children", n, marked)
			}
		}
	})
	if want := countStmts(script.Stmts); stmts != want {
		t.Fatalf("WalkStmts visited %d statements of %s, want %d", stmts, script, want)
	}
}

// countStmts is the reference statement count: its own switch, on purpose.
func countStmts(ss []callang.Stmt) int {
	n := len(ss)
	for _, st := range ss {
		switch s := st.(type) {
		case *callang.IfStmt:
			n += countStmts(s.Then) + countStmts(s.Else)
		case *callang.WhileStmt:
			n += countStmts(s.Body)
		}
	}
	return n
}

// TestWalkCoversEveryNode runs the laws over the fuzz seeds and the paper's
// scripts and requires all nine node types to have been met, so a node type
// that is not added to Walk and MapChildren fails here rather than silently
// in each pass built on them. The last block pins one such pass end to end:
// Inline reaches an identifier under every composite node.
func TestWalkCoversEveryNode(t *testing.T) {
	seen := map[reflect.Type]bool{}
	for i, src := range append(slices.Clone(paperGoldens), fuzzSeeds...) {
		script, err := callang.ParseDerivation(src)
		if err != nil {
			if i < len(paperGoldens) {
				t.Fatalf("ParseDerivation(%q): %v", src, err)
			}
			continue // a fuzz seed may be there for the error path
		}
		checkWalkLaws(t, script, seen)
	}
	if len(seen) != 9 {
		t.Fatalf("corpus holds %d node types, want 9: %v", len(seen), seen)
	}

	zq, err := callang.ParseDerivation("[1]/MONTHS")
	if err != nil {
		t.Fatal(err)
	}
	scripts := callang.ScriptMap{"Zq": zq}
	for _, src := range []string{
		"Zq + Zq", "Zq - Zq", "Zq:intersects:Zq", "Zq:during:Zq", "Zq.overlaps.Zq",
		"[2]/Zq", "1993/Zq", "caloperate(Zq, 3)",
	} {
		e, err := callang.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		inlined, err := callang.Inline(e, scripts, nil)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if strings.Contains(inlined.String(), "Zq") {
			t.Errorf("%q: Zq not inlined: %s", src, inlined)
		}
	}
}
