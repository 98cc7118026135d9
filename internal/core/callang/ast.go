package callang

import (
	"fmt"
	"slices"
	"strings"

	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

// Expr is a calendar expression node.
type Expr interface {
	exprNode()
	// String renders canonical surface syntax.
	String() string
	// Children returns sub-expressions for tree walks and rendering.
	Children() []Expr
	// Label is the node's own caption in a parse tree (Figures 2-3).
	Label() string
}

// IsToday reports whether name is the reserved word `today`, the runtime
// binding of the evaluation clock. Like basic and catalog calendar names it
// is matched without regard to case, and nothing can shadow it.
func IsToday(name string) bool { return strings.EqualFold(name, "today") }

// Ident references a calendar by name: a basic calendar (DAYS), a derived
// calendar (Tuesdays), a stored calendar (HOLIDAYS), a script temporary, or
// the runtime binding `today`.
type Ident struct {
	Name string
	Pos  Pos
}

// Number is an integer literal (selection labels, call arguments).
type Number struct {
	Val int64
	Pos Pos
}

// StringLit is a string literal (dates in calls, alert messages).
type StringLit struct {
	Val string
	Pos Pos
}

// ForeachExpr is the foreach operator {X : Op : Y} (strict) or {X . Op . Y}
// (relaxed). Pos is the position of the operator token.
type ForeachExpr struct {
	X      Expr
	Op     interval.ListOp
	Strict bool
	Y      Expr
	Pos    Pos
}

// IntersectExpr is {X : intersects : Y}: point-set intersection of two
// order-1 calendars (see the EMP-DAYS script of §3.3).
type IntersectExpr struct {
	X, Y Expr
	Pos  Pos
}

// SelectExpr is the selection operator [pred]/X. Pos is the position of the
// opening bracket.
type SelectExpr struct {
	Pred calendar.Selection
	X    Expr
	Pos  Pos
}

// LabelSelExpr is label-based selection such as 1993/YEARS, which selects
// the unit labeled 1993 rather than the 1993rd element.
type LabelSelExpr struct {
	Num int64
	X   Expr
	Pos Pos
}

// BinExpr is calendar union (+) or difference (-). Pos is the position of
// the operator token.
type BinExpr struct {
	Op   byte // '+' or '-'
	X, Y Expr
	Pos  Pos
}

// CallExpr invokes a built-in function: generate, caloperate, interval,
// points.
type CallExpr struct {
	Name string
	Args []Expr
	Pos  Pos
}

func (*Ident) exprNode()         {}
func (*Number) exprNode()        {}
func (*StringLit) exprNode()     {}
func (*ForeachExpr) exprNode()   {}
func (*IntersectExpr) exprNode() {}
func (*SelectExpr) exprNode()    {}
func (*LabelSelExpr) exprNode()  {}
func (*BinExpr) exprNode()       {}
func (*CallExpr) exprNode()      {}

func (e *Ident) String() string     { return e.Name }
func (e *Number) String() string    { return fmt.Sprintf("%d", e.Val) }
func (e *StringLit) String() string { return quote(e.Val) }

// quote renders a string literal the way the lexer reads one: a backslash
// makes the next byte literal, and nothing else is special.
func quote(s string) string {
	return `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(s) + `"`
}

func (e *ForeachExpr) String() string {
	sep := ":"
	if !e.Strict {
		sep = "."
	}
	return fmt.Sprintf("%s%s%s%s%s", paren(e.X), sep, e.Op, sep, paren(e.Y))
}

func (e *IntersectExpr) String() string {
	return fmt.Sprintf("%s:intersects:%s", paren(e.X), paren(e.Y))
}

func (e *SelectExpr) String() string {
	return fmt.Sprintf("%s/%s", e.Pred, paren(e.X))
}

func (e *LabelSelExpr) String() string {
	return fmt.Sprintf("%d/%s", e.Num, paren(e.X))
}

func (e *BinExpr) String() string {
	return fmt.Sprintf("%s %c %s", paren(e.X), e.Op, paren(e.Y))
}

func (e *CallExpr) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
}

// paren wraps composite operands so rendered syntax re-parses with the same
// shape.
func paren(e Expr) string {
	switch e.(type) {
	case *Ident, *Number, *StringLit, *CallExpr:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// ExprPos returns the best-known source position of an expression: the
// node's own position when the parser recorded one, else the first recorded
// position among its descendants. Synthetic nodes (built by the inliner or
// the factorizer) may have no position at all, in which case the zero Pos is
// returned.
func ExprPos(e Expr) Pos {
	var p Pos
	switch n := e.(type) {
	case *Ident:
		p = n.Pos
	case *Number:
		p = n.Pos
	case *StringLit:
		p = n.Pos
	case *ForeachExpr:
		p = n.Pos
	case *IntersectExpr:
		p = n.Pos
	case *SelectExpr:
		p = n.Pos
	case *LabelSelExpr:
		p = n.Pos
	case *BinExpr:
		p = n.Pos
	case *CallExpr:
		p = n.Pos
	}
	if p != (Pos{}) {
		return p
	}
	for _, c := range e.Children() {
		if cp := ExprPos(c); cp != (Pos{}) {
			return cp
		}
	}
	return Pos{}
}

func (e *Ident) Children() []Expr         { return nil }
func (e *Number) Children() []Expr        { return nil }
func (e *StringLit) Children() []Expr     { return nil }
func (e *ForeachExpr) Children() []Expr   { return []Expr{e.X, e.Y} }
func (e *IntersectExpr) Children() []Expr { return []Expr{e.X, e.Y} }
func (e *SelectExpr) Children() []Expr    { return []Expr{e.X} }
func (e *LabelSelExpr) Children() []Expr  { return []Expr{e.X} }
func (e *BinExpr) Children() []Expr       { return []Expr{e.X, e.Y} }
func (e *CallExpr) Children() []Expr      { return e.Args }

func (e *Ident) Label() string     { return e.Name }
func (e *Number) Label() string    { return fmt.Sprintf("%d", e.Val) }
func (e *StringLit) Label() string { return quote(e.Val) }
func (e *ForeachExpr) Label() string {
	mode := "strict"
	if !e.Strict {
		mode = "relaxed"
	}
	return fmt.Sprintf("foreach %s (%s)", e.Op, mode)
}
func (e *IntersectExpr) Label() string { return "intersects" }
func (e *SelectExpr) Label() string    { return "select " + e.Pred.String() }
func (e *LabelSelExpr) Label() string  { return fmt.Sprintf("select label %d", e.Num) }
func (e *BinExpr) Label() string       { return string(e.Op) }
func (e *CallExpr) Label() string      { return e.Name + "()" }

// Walk calls fn with e and then with every descendant, in preorder — source
// order for the identifiers of a parsed expression.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	switch n := e.(type) {
	case *ForeachExpr:
		Walk(n.X, fn)
		Walk(n.Y, fn)
	case *IntersectExpr:
		Walk(n.X, fn)
		Walk(n.Y, fn)
	case *SelectExpr:
		Walk(n.X, fn)
	case *LabelSelExpr:
		Walk(n.X, fn)
	case *BinExpr:
		Walk(n.X, fn)
		Walk(n.Y, fn)
	case *CallExpr:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	}
}

// MapChildren applies f to each child of e and returns e itself when f
// changed none of them, else a copy of e holding the new children.
func MapChildren(e Expr, f func(Expr) Expr) Expr {
	switch n := e.(type) {
	case *ForeachExpr:
		if x, y := f(n.X), f(n.Y); x != n.X || y != n.Y {
			c := *n
			c.X, c.Y = x, y
			return &c
		}
	case *IntersectExpr:
		if x, y := f(n.X), f(n.Y); x != n.X || y != n.Y {
			c := *n
			c.X, c.Y = x, y
			return &c
		}
	case *SelectExpr:
		if x := f(n.X); x != n.X {
			c := *n
			c.X = x
			return &c
		}
	case *LabelSelExpr:
		if x := f(n.X); x != n.X {
			c := *n
			c.X = x
			return &c
		}
	case *BinExpr:
		if x, y := f(n.X), f(n.Y); x != n.X || y != n.Y {
			c := *n
			c.X, c.Y = x, y
			return &c
		}
	case *CallExpr:
		var args []Expr
		for i, a := range n.Args {
			if x := f(a); x != a {
				if args == nil {
					args = slices.Clone(n.Args)
				}
				args[i] = x
			}
		}
		if args != nil {
			c := *n
			c.Args = args
			return &c
		}
	}
	return e
}

// NodeCount returns the number of nodes in the expression tree; the paper's
// factorization claim (Figures 2-3) is that it shrinks this count.
func NodeCount(e Expr) int {
	n := 0
	Walk(e, func(Expr) { n++ })
	return n
}

// TreeString renders the parse tree in the style of Figures 2 and 3.
func TreeString(e Expr) string {
	var b strings.Builder
	renderTree(&b, e, "", true, true)
	return b.String()
}

func renderTree(b *strings.Builder, e Expr, prefix string, isLast, isRoot bool) {
	if isRoot {
		b.WriteString(e.Label())
		b.WriteByte('\n')
	} else {
		b.WriteString(prefix)
		if isLast {
			b.WriteString("└── ")
			prefix += "    "
		} else {
			b.WriteString("├── ")
			prefix += "│   "
		}
		b.WriteString(e.Label())
		b.WriteByte('\n')
	}
	kids := e.Children()
	for i, k := range kids {
		childPrefix := prefix
		if isRoot {
			childPrefix = ""
		}
		renderTree(b, k, childPrefix, i == len(kids)-1, false)
	}
}

// --- Statements -------------------------------------------------------

// Stmt is a calendar-script statement.
type Stmt interface {
	stmtNode()
	String() string
}

// AssignStmt binds a temporary calendar variable: name = expr;
type AssignStmt struct {
	Name string
	X    Expr
	Pos  Pos
}

// IfStmt is if (cond) action [else action]; a null (empty) calendar
// condition is false.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// WhileStmt is while (cond) action; the body may be empty (the paper's
// "do nothing" wait loop).
type WhileStmt struct {
	Cond Expr
	Body []Stmt
	Pos  Pos
}

// ReturnStmt yields the script's result: a calendar or an alert string.
type ReturnStmt struct {
	X   Expr
	Pos Pos
}

// ExprStmt evaluates an expression for effect (rare; kept for completeness).
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// StmtPos returns the best-known source position of a statement, falling
// back to its expressions when the statement itself carries none.
func StmtPos(s Stmt) Pos {
	var p Pos
	var x Expr
	switch n := s.(type) {
	case *AssignStmt:
		p, x = n.Pos, n.X
	case *IfStmt:
		p, x = n.Pos, n.Cond
	case *WhileStmt:
		p, x = n.Pos, n.Cond
	case *ReturnStmt:
		p, x = n.Pos, n.X
	case *ExprStmt:
		p, x = n.Pos, n.X
	}
	if p != (Pos{}) || x == nil {
		return p
	}
	return ExprPos(x)
}

// WalkStmts calls fn with every statement of ss, nested blocks included, in
// source order, together with the statement's own expression (the assigned,
// returned or evaluated one, or the condition of an if or while).
func WalkStmts(ss []Stmt, fn func(st Stmt, x Expr)) {
	for _, st := range ss {
		switch n := st.(type) {
		case *AssignStmt:
			fn(n, n.X)
		case *ReturnStmt:
			fn(n, n.X)
		case *ExprStmt:
			fn(n, n.X)
		case *IfStmt:
			fn(n, n.Cond)
			WalkStmts(n.Then, fn)
			WalkStmts(n.Else, fn)
		case *WhileStmt:
			fn(n, n.Cond)
			WalkStmts(n.Body, fn)
		}
	}
}

// AssignedNames collects every temporary assigned anywhere in a statement
// tree.
func AssignedNames(ss []Stmt) map[string]bool {
	out := map[string]bool{}
	WalkStmts(ss, func(st Stmt, _ Expr) {
		if a, ok := st.(*AssignStmt); ok {
			out[a.Name] = true
		}
	})
	return out
}

func (*AssignStmt) stmtNode() {}
func (*IfStmt) stmtNode()     {}
func (*WhileStmt) stmtNode()  {}
func (*ReturnStmt) stmtNode() {}
func (*ExprStmt) stmtNode()   {}

func (s *AssignStmt) String() string { return fmt.Sprintf("%s = %s;", s.Name, s.X) }
func (s *ReturnStmt) String() string { return fmt.Sprintf("return (%s);", s.X) }
func (s *ExprStmt) String() string   { return s.X.String() + ";" }

func (s *IfStmt) String() string {
	out := fmt.Sprintf("if (%s) %s", s.Cond, blockString(s.Then))
	if len(s.Else) > 0 {
		out += " else " + blockString(s.Else)
	}
	return out
}

func (s *WhileStmt) String() string {
	if len(s.Body) == 0 {
		return fmt.Sprintf("while (%s) ;", s.Cond)
	}
	return fmt.Sprintf("while (%s) %s", s.Cond, blockString(s.Body))
}

func blockString(ss []Stmt) string {
	if len(ss) == 1 {
		return ss[0].String()
	}
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = s.String()
	}
	return "{ " + strings.Join(parts, " ") + " }"
}

// Script is a parsed calendar script: the derivation-script column of the
// CALENDARS catalog. Stmts is not to be modified once parsed.
type Script struct {
	Stmts []Stmt
	// expr is the script as one expression (see AsExpr), decided when it is
	// parsed; nil when it has to run statement by statement.
	expr Expr
}

// String renders the script in canonical surface syntax.
func (s *Script) String() string {
	parts := make([]string, len(s.Stmts))
	for i, st := range s.Stmts {
		parts[i] = st.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// ExprScript wraps one expression as a script, the inverse of AsExpr.
func ExprScript(e Expr) *Script { return &Script{Stmts: []Stmt{&ExprStmt{X: e}}, expr: e} }

// AsExpr answers "is this script an expression, and which one?". A straight
// line of assignments ended by `return (expr)` or a bare expression is that
// expression with every temporary replaced by its right-hand side (see
// substitute); references to such a derivation are inlined for factorization
// and the script is never run. ok=false for a script that branches, loops,
// waits, returns an alert string, or that substitution refuses.
func (s *Script) AsExpr() (Expr, bool) { return s.expr, s.expr != nil }
