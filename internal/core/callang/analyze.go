package callang

import (
	"sort"

	"calsys/internal/chronology"
)

// Analysis carries the results of the static passes the parsing algorithm of
// §3.4 performs after factorization: the smallest time unit in which all
// calendars of the expression can be expressed, and the calendars that occur
// more than once (whose values the evaluator generates only once).
type Analysis struct {
	// TickGran is the smallest time unit in which every referenced calendar
	// is exactly expressible; every calendar in the plan is generated in
	// these units. Weeks do not align with months and coarser units, so a
	// mixed week/month expression is expressed in days.
	TickGran chronology.Granularity
	// Kinds is the set of element kinds referenced.
	Kinds map[chronology.Granularity]bool
	// Shared lists the names of calendars referenced more than once, in
	// sorted order.
	Shared []string
	// Refs counts references per calendar name.
	Refs map[string]int
	// Unknown lists referenced names whose kind the resolver could not
	// supply (script temporaries bound at evaluation time).
	Unknown []string
}

// GranFor returns the smallest time unit in which every kind in the set is
// exactly expressible. Month-family units (months, years, decades, the
// century) nest in one another and weeks nest only in days and finer, so a
// set mixing weeks with coarser units falls back to days.
func GranFor(kinds map[chronology.Granularity]bool) chronology.Granularity {
	if len(kinds) == 0 {
		return chronology.Day
	}
	finest := chronology.Century
	coarserThanWeek := false
	for g := range kinds {
		if g.Finer(finest) {
			finest = g
		}
		if g.Coarser(chronology.Week) {
			coarserThanWeek = true
		}
	}
	if finest == chronology.Week && coarserThanWeek {
		return chronology.Day
	}
	return finest
}

// Analyze computes the Analysis of an expression.
func Analyze(e Expr, kinds KindResolver) Analysis {
	a := Analysis{Refs: map[string]int{}, Kinds: map[chronology.Granularity]bool{}}
	walk(e, func(x Expr) {
		switch n := x.(type) {
		case *Ident:
			a.Refs[n.Name]++
			if g, ok := kinds.ElemKindOf(n.Name); ok {
				a.Kinds[g] = true
			} else if a.Refs[n.Name] == 1 {
				a.Unknown = append(a.Unknown, n.Name)
			}
		case *CallExpr:
			// generate(OF, IN, ...) expresses OF in IN units; interval and
			// points literals may declare their tick unit as a trailing
			// argument: interval(lo, hi, DAYS).
			if n.Name == "generate" && len(n.Args) >= 2 {
				if id, ok := n.Args[1].(*Ident); ok {
					if g, err := chronology.ParseGranularity(id.Name); err == nil {
						a.Kinds[g] = true
					}
				}
			}
			if (n.Name == "interval" || n.Name == "points") && len(n.Args) > 0 {
				if id, ok := n.Args[len(n.Args)-1].(*Ident); ok {
					if g, err := chronology.ParseGranularity(id.Name); err == nil {
						a.Kinds[g] = true
					}
				}
			}
		}
	})
	a.TickGran = GranFor(a.Kinds)
	for name, n := range a.Refs {
		if n > 1 {
			a.Shared = append(a.Shared, name)
		}
	}
	sort.Strings(a.Shared)
	sort.Strings(a.Unknown)
	return a
}

// AnalyzeScript runs Analyze over every expression of a script and merges
// the results.
func AnalyzeScript(s *Script, kinds KindResolver) Analysis {
	merged := Analysis{Refs: map[string]int{}, Kinds: map[chronology.Granularity]bool{}}
	var visitStmts func(ss []Stmt)
	visit := func(e Expr) {
		sub := Analyze(e, kinds)
		for g := range sub.Kinds {
			merged.Kinds[g] = true
		}
		for k, v := range sub.Refs {
			merged.Refs[k] += v
		}
	}
	visitStmts = func(ss []Stmt) {
		for _, st := range ss {
			switch n := st.(type) {
			case *AssignStmt:
				visit(n.X)
			case *ReturnStmt:
				visit(n.X)
			case *ExprStmt:
				visit(n.X)
			case *IfStmt:
				visit(n.Cond)
				visitStmts(n.Then)
				visitStmts(n.Else)
			case *WhileStmt:
				visit(n.Cond)
				visitStmts(n.Body)
			}
		}
	}
	visitStmts(s.Stmts)
	merged.TickGran = GranFor(merged.Kinds)
	// Temporaries assigned anywhere in the script (including if/while
	// branches) are not external references.
	var stripAssigned func(ss []Stmt)
	stripAssigned = func(ss []Stmt) {
		for _, st := range ss {
			switch n := st.(type) {
			case *AssignStmt:
				delete(merged.Refs, n.Name)
			case *IfStmt:
				stripAssigned(n.Then)
				stripAssigned(n.Else)
			case *WhileStmt:
				stripAssigned(n.Body)
			}
		}
	}
	stripAssigned(s.Stmts)
	for name, n := range merged.Refs {
		if n > 1 {
			merged.Shared = append(merged.Shared, name)
		}
	}
	sort.Strings(merged.Shared)
	for name := range merged.Refs {
		if _, ok := kinds.ElemKindOf(name); !ok {
			merged.Unknown = append(merged.Unknown, name)
		}
	}
	sort.Strings(merged.Unknown)
	return merged
}

// walk visits e and all descendants in preorder.
func walk(e Expr, fn func(Expr)) {
	fn(e)
	for _, c := range e.Children() {
		walk(c, fn)
	}
}

// BasicOnly reports whether an expression references only basic calendars
// (no catalog entries, no `today`): its value is then the same under every
// catalog, so one prepared plan serves all of them.
func BasicOnly(e Expr) bool {
	for ref := range Analyze(e, KindMap{}).Refs {
		if _, err := chronology.ParseGranularity(ref); err != nil {
			return false
		}
	}
	return true
}
