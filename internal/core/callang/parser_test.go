package callang

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"calsys/internal/core/interval"
)

func mustExpr(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func mustScript(t *testing.T, src string) *Script {
	t.Helper()
	s, err := ParseScript(src)
	if err != nil {
		t.Fatalf("ParseScript(%q): %v", src, err)
	}
	return s
}

func TestParseForeachRightAssociative(t *testing.T) {
	e := mustExpr(t, "Mondays:during:Januarys:during:Year1993")
	// Right-associative: Mondays : during : (Januarys : during : Year1993).
	outer, ok := e.(*ForeachExpr)
	if !ok {
		t.Fatalf("root = %T", e)
	}
	if outer.X.(*Ident).Name != "Mondays" {
		t.Error("left operand wrong")
	}
	inner, ok := outer.Y.(*ForeachExpr)
	if !ok {
		t.Fatalf("right operand = %T, want nested foreach", outer.Y)
	}
	if inner.X.(*Ident).Name != "Januarys" || inner.Y.(*Ident).Name != "Year1993" {
		t.Error("inner operands wrong")
	}
	if !outer.Strict || !inner.Strict {
		t.Error("':' chains are strict")
	}
}

func TestParseRelaxedForeach(t *testing.T) {
	e := mustExpr(t, "WEEKS.overlaps.Jan-1993")
	f, ok := e.(*ForeachExpr)
	if !ok || f.Strict || f.Op != interval.Overlaps {
		t.Fatalf("got %#v", e)
	}
	if _, err := ParseExpr("WEEKS.overlaps:Jan-1993"); err == nil {
		t.Error("mismatched separators should fail")
	}
}

func TestParseSelectionBindsLoosely(t *testing.T) {
	// [2]/DAYS:during:WEEKS = [2]/(DAYS:during:WEEKS): Figure 1's Tuesdays.
	e := mustExpr(t, "[2]/DAYS:during:WEEKS")
	sel, ok := e.(*SelectExpr)
	if !ok {
		t.Fatalf("root = %T", e)
	}
	if _, ok := sel.X.(*ForeachExpr); !ok {
		t.Fatalf("selection subject = %T, want foreach", sel.X)
	}
	if sel.Pred.String() != "[2]" {
		t.Errorf("pred = %v", sel.Pred)
	}
}

func TestParseSelectionForms(t *testing.T) {
	cases := map[string]string{
		"[n]/C":     "[n]",
		"[-7]/C":    "[-7]",
		"[1,3,5]/C": "[1,3,5]",
		"[2-5]/C":   "[2-5]",
		"[1,n]/C":   "[1,n]",
		"[-3--1]/C": "[-3--1]",
	}
	for src, want := range cases {
		e := mustExpr(t, src)
		sel, ok := e.(*SelectExpr)
		if !ok {
			t.Errorf("%q: root = %T", src, e)
			continue
		}
		if sel.Pred.String() != want {
			t.Errorf("%q: pred = %v, want %v", src, sel.Pred, want)
		}
	}
}

func TestParseLabelSelection(t *testing.T) {
	e := mustExpr(t, "1993/YEARS")
	l, ok := e.(*LabelSelExpr)
	if !ok || l.Num != 1993 || l.X.(*Ident).Name != "YEARS" {
		t.Fatalf("got %#v", e)
	}
	// Nested inside a chain.
	e = mustExpr(t, "Mondays:during:1993/YEARS")
	f := e.(*ForeachExpr)
	if _, ok := f.Y.(*LabelSelExpr); !ok {
		t.Errorf("chain right operand = %T", f.Y)
	}
}

func TestParseIntersectsAndSetOps(t *testing.T) {
	e := mustExpr(t, "LDOM:intersects:HOLIDAYS")
	if _, ok := e.(*IntersectExpr); !ok {
		t.Fatalf("got %T", e)
	}
	e = mustExpr(t, "LDOM - LDOM_HOL + LAST_BUS_DAY")
	// Left-associative additive: (LDOM - LDOM_HOL) + LAST_BUS_DAY.
	add, ok := e.(*BinExpr)
	if !ok || add.Op != '+' {
		t.Fatalf("got %#v", e)
	}
	sub, ok := add.X.(*BinExpr)
	if !ok || sub.Op != '-' {
		t.Fatalf("left = %#v", add.X)
	}
	if _, err := ParseExpr("A:intersects.B"); err == nil {
		t.Error("mismatched intersects separators should fail")
	}
	if _, err := ParseExpr("A.intersects.B"); err == nil {
		t.Error("relaxed intersects should fail")
	}
}

func TestParseCalls(t *testing.T) {
	e := mustExpr(t, `generate(YEARS, DAYS, "Jan 1 1987", "Jan 3 1992")`)
	c, ok := e.(*CallExpr)
	if !ok || c.Name != "generate" || len(c.Args) != 4 {
		t.Fatalf("got %#v", e)
	}
	if c.Args[2].(*StringLit).Val != "Jan 1 1987" {
		t.Error("string arg wrong")
	}
	e = mustExpr(t, "caloperate(MONTHS, 3)")
	c = e.(*CallExpr)
	if c.Args[1].(*Number).Val != 3 {
		t.Error("int arg wrong")
	}
	e = mustExpr(t, "interval(-4, 3)")
	c = e.(*CallExpr)
	if c.Args[0].(*Number).Val != -4 {
		t.Error("negative int arg wrong")
	}
}

// The EMP-DAYS script of §3.3 parses into three assignments and a return.
func TestParsePaperEmpDaysScript(t *testing.T) {
	src := `{LDOM = [n]/DAYS:during:MONTHS;
	LDOM_HOL = LDOM:intersects:HOLIDAYS;
	LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;
	return (LDOM - LDOM_HOL + LAST_BUS_DAY);}`
	s := mustScript(t, src)
	if len(s.Stmts) != 4 {
		t.Fatalf("stmt count = %d", len(s.Stmts))
	}
	if a, ok := s.Stmts[0].(*AssignStmt); !ok || a.Name != "LDOM" {
		t.Errorf("stmt 0 = %v", s.Stmts[0])
	}
	if _, ok := s.Stmts[3].(*ReturnStmt); !ok {
		t.Errorf("stmt 3 = %v", s.Stmts[3])
	}
	lb := s.Stmts[2].(*AssignStmt)
	f := lb.X.(*SelectExpr).X.(*ForeachExpr)
	if f.Op != interval.Before {
		t.Errorf("LAST_BUS_DAY op = %v", f.Op)
	}
}

// The option-expiration script of §3.3 (if/else with comments).
func TestParsePaperOptionScript(t *testing.T) {
	src := `{Fridays = [5]/DAYS:during:WEEKS;
	temp1 = [3]/Fridays:overlaps:Expiration-Month;
	/* 3rd Friday of the expiration month */
	if (temp1:intersects:HOLIDAYS) /* if holiday */
		return([n]/AM_BUS_DAYS:<:temp1);
	else
		return(temp1);}`
	s := mustScript(t, src)
	if len(s.Stmts) != 3 {
		t.Fatalf("stmt count = %d", len(s.Stmts))
	}
	ifs, ok := s.Stmts[2].(*IfStmt)
	if !ok {
		t.Fatalf("stmt 2 = %T", s.Stmts[2])
	}
	if len(ifs.Then) != 1 || len(ifs.Else) != 1 {
		t.Error("if branches wrong")
	}
	if _, ok := ifs.Cond.(*IntersectExpr); !ok {
		t.Errorf("cond = %T", ifs.Cond)
	}
}

// The last-trading-day script of §3.3 (while with empty body).
func TestParsePaperWhileScript(t *testing.T) {
	src := `{ temp1 = [n]/AM_BUS_DAYS:during:Expiration-Month;
	temp2 = [-7]/AM_BUS_DAYS:<:temp1;
	while (today:<:temp2) ; /* do nothing */
	return ("LAST TRADING DAY");}`
	s := mustScript(t, src)
	if len(s.Stmts) != 4 {
		t.Fatalf("stmt count = %d", len(s.Stmts))
	}
	w, ok := s.Stmts[2].(*WhileStmt)
	if !ok {
		t.Fatalf("stmt 2 = %T", s.Stmts[2])
	}
	if len(w.Body) != 0 {
		t.Error("while body should be empty")
	}
	r := s.Stmts[3].(*ReturnStmt)
	if r.X.(*StringLit).Val != "LAST TRADING DAY" {
		t.Error("alert string wrong")
	}
}

func TestParseIfWithBlocks(t *testing.T) {
	s := mustScript(t, `{if (A) { x = B; y = C; } else { z = D; }}`)
	ifs := s.Stmts[0].(*IfStmt)
	if len(ifs.Then) != 2 || len(ifs.Else) != 1 {
		t.Errorf("block sizes: then=%d else=%d", len(ifs.Then), len(ifs.Else))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                    // empty
		"{}",                  // empty script
		"[0]/C",               // selection position 0
		"[1",                  // unterminated predicate
		"A:during",            // missing right operand and separator
		"A:bogus:B",           // unknown listop
		"A::B",                // missing op
		"x = ;",               // missing expression
		"return A;",           // return needs parentheses
		"if A return(B);",     // if needs parentheses
		"A:during:B",          // expression is not a script statement without ';' -- wait, scripts need ';'
		"{x = A}",             // missing semicolon
		"while (A) { x = B; ", // unterminated block
		"A + ;",               // dangling operator
		"(A",                  // unterminated paren
		"f(A, ",               // unterminated call
	}
	for _, src := range bad {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("ParseScript(%q) should fail", src)
		}
	}
	// `today` is reserved in every spelling: the compiler resolves it before
	// temporaries, so an assignment to it could never be read. The error sits
	// on the name, also when the assignment is nested.
	for src, at := range map[string]string{
		"{today = [1]/DAYS:during:WEEKS; return (today);}": "1:2",
		"{if (DAYS) { x = DAYS; Today = x; } return (x);}": "1:24",
		"TODAY = DAYS;": "1:1",
	} {
		_, err := ParseDerivation(src)
		if err == nil || !strings.Contains(err.Error(), at+": cannot assign to") {
			t.Errorf("ParseDerivation(%q) = %v, want a \"cannot assign to\" error at %s", src, err, at)
		}
	}
	if _, err := ParseExpr("A B"); err == nil {
		t.Error("trailing tokens after expression should fail")
	}
	if _, err := ParseExpr("A ? B"); err == nil {
		t.Error("lexical errors should surface through ParseExpr")
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	srcs := []string{
		"[2]/DAYS:during:WEEKS",
		"[3]/WEEKS:overlaps:MONTHS",
		"Mondays:during:Januarys:during:1993/YEARS",
		"WEEKS.overlaps.Jan-1993",
		"LDOM - LDOM_HOL + LAST_BUS_DAY",
		"LDOM:intersects:HOLIDAYS",
		"[n]/AM_BUS_DAYS:<:temp1",
		"[-7]/AM_BUS_DAYS:<=:temp1",
		`generate(YEARS, DAYS, "Jan 1 1987", "Jan 3 1992")`,
	}
	for _, src := range srcs {
		e := mustExpr(t, src)
		again := mustExpr(t, e.String())
		if e.String() != again.String() {
			t.Errorf("%q: render %q re-parses as %q", src, e.String(), again.String())
		}
	}
}

func TestScriptStringRoundTrip(t *testing.T) {
	src := `{LDOM = [n]/DAYS:during:MONTHS;
	if (LDOM:intersects:HOLIDAYS) return (A); else return (B);}`
	s := mustScript(t, src)
	again := mustScript(t, s.String())
	if s.String() != again.String() {
		t.Errorf("render %q re-parses as %q", s.String(), again.String())
	}
}

func TestTreeString(t *testing.T) {
	e := mustExpr(t, "[3]/WEEKS:overlaps:MONTHS")
	tree := TreeString(e)
	for _, want := range []string{"select [3]", "foreach overlaps (strict)", "WEEKS", "MONTHS"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
	if NodeCount(e) != 4 {
		t.Errorf("NodeCount = %d, want 4", NodeCount(e))
	}
}

// A script is an expression when it is a straight line of assignments ended
// by its result: AsExpr is that result with the temporaries substituted, in
// statement order.
func TestSingleExpr(t *testing.T) {
	for src, want := range map[string]string{
		"[2]/DAYS:during:WEEKS;":          "[2]/(DAYS:during:WEEKS)",
		"return ([2]/DAYS:during:WEEKS);": "[2]/(DAYS:during:WEEKS)",
		"{x = A; return (x);}":            "A",
		// The paper's running example.
		"{wd = [1,2,3,4,5]/DAYS:during:WEEKS; return (wd - holidays);}": "([1,2,3,4,5]/(DAYS:during:WEEKS)) - holidays",
		// Reuse, and reassignment reading the previous value.
		"{x = A + B; x = x - C; return (x:intersects:x);}": "((A + B) - C):intersects:((A + B) - C)",
		// A name read before it is assigned is still the catalog's.
		"{x = HOL; HOL = x + B; return (HOL);}": "HOL + B",
		// A temporary named like a basic calendar shadows it where a calendar
		// is read, not where a basic calendar's name is spelled.
		"{DAYS = A; return ((DAYS:during:1993/DAYS) + caloperate(DAYS, 3) + generate(DAYS, DAYS, \"1993-01-01\", \"1993-01-02\"));}": "((A:during:(1993/DAYS)) + caloperate(A, 3)) + generate(DAYS, DAYS, \"1993-01-01\", \"1993-01-02\")",
		// `today` cannot be assigned, so it is always the clock.
		"{x = today; return (x:during:WEEKS);}": "today:during:WEEKS",
	} {
		e, ok := mustScript(t, src).AsExpr()
		if !ok {
			t.Errorf("%s: not an expression", src)
		} else if e.String() != want {
			t.Errorf("%s:\n got  %s\n want %s", src, e, want)
		}
	}
	for _, src := range []string{
		"{if (A) return (B); return (C);}",           // branches
		"{while (A:intersects:today) ; return (B);}", // waits
		"{x = A; while (x) x = x - B; return (x);}",  // loops
		"{x = A; return (\"ALERT\");}",               // alert string
		"return (\"ALERT\");",
		"{x = A; y = B; return (x);}",   // y unread: the runner still evaluates it
		"{x = A; x = B; return (x);}",   // first x unread
		"{n = 3; return ([n]/DAYS);}",   // not a calendar
		"{y = YEARS; return (1993/y);}", // a label selection spells a basic calendar
		"{x = A; return (x); x = B;}",   // statements after the result
		"{A; return (B);}",              // an expression evaluated for effect
		"{x = A;}",                      // no result
	} {
		if e, ok := mustScript(t, src).AsExpr(); ok {
			t.Errorf("%s: should stay a script, got %s", src, e)
		}
	}
}

// The doubling script is linear to write and 2ⁿ to walk once substituted:
// the node budget refuses it, in time linear in the source.
func TestAsExprNodeBudget(t *testing.T) {
	var b strings.Builder
	b.WriteString("{t0 = DAYS + WEEKS;")
	for i := 1; i <= 60; i++ {
		fmt.Fprintf(&b, " t%d = t%d + t%d;", i, i-1, i-1)
	}
	b.WriteString(" return (t60);}")
	start := time.Now()
	s := mustScript(t, b.String())
	if took := time.Since(start); took > time.Second {
		t.Errorf("parsing the doubling script took %v", took)
	}
	if e, ok := s.AsExpr(); ok {
		t.Errorf("doubling script passed the node budget with %d nodes", NodeCount(e))
	}
	// Eight doublings of a three-node sum stay under it.
	short := mustScript(t, "{a = DAYS + WEEKS; b = a + a; c = b + b; d = c + c; return (d);}")
	if e, ok := short.AsExpr(); !ok || NodeCount(e) != 31 {
		t.Errorf("short doubling script: ok=%v %v", ok, e)
	}
}
