package callang

import (
	"strings"
	"testing"

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

func TestSingleExpr(t *testing.T) {
	s := mustScript(t, "[2]/DAYS:during:WEEKS;")
	if _, ok := s.SingleExpr(); !ok {
		t.Error("bare expression script is single-expr")
	}
	s = mustScript(t, "return ([2]/DAYS:during:WEEKS);")
	if _, ok := s.SingleExpr(); !ok {
		t.Error("single return script is single-expr")
	}
	s = mustScript(t, "{x = A; return (x);}")
	if _, ok := s.SingleExpr(); ok {
		t.Error("multi-statement script is not single-expr")
	}
}
