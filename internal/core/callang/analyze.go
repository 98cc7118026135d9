package callang

import (
	"sort"
	"strings"

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
	Walk(e, func(x Expr) {
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
	WalkStmts(s.Stmts, func(_ Stmt, x Expr) {
		sub := Analyze(x, kinds)
		for g := range sub.Kinds {
			merged.Kinds[g] = true
		}
		for k, v := range sub.Refs {
			merged.Refs[k] += v
		}
	})
	merged.TickGran = GranFor(merged.Kinds)
	// Temporaries assigned anywhere in the script (including if/while
	// branches) are not external references.
	for name := range AssignedNames(s.Stmts) {
		delete(merged.Refs, name)
	}
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

// ClockRead is the one answer to "can evaluating this script read the
// clock?": it reports the first identifier that is `today`, the first
// identifier the compiler would resolve in the catalog that volatile calls
// clock-reading, or the first empty-bodied while (the paper's wait loop,
// which spins until the clock satisfies its condition) — whichever comes
// first in source order, with its position. Names resolve in the compiler's
// order: `today`, then the script's temporaries (which shadow the catalog
// once assigned), then the catalog.
func ClockRead(s *Script, volatile func(name string) bool) (pos Pos, found bool) {
	temps := map[string]bool{}
	hit := func(p Pos) {
		if !found {
			pos, found = p, true
		}
	}
	WalkStmts(s.Stmts, func(st Stmt, x Expr) {
		if w, ok := st.(*WhileStmt); ok && len(w.Body) == 0 {
			hit(w.Pos)
		}
		Walk(x, func(e Expr) {
			id, ok := e.(*Ident)
			if !ok || found {
				return
			}
			if IsToday(id.Name) || !temps[id.Name] && volatile(id.Name) {
				hit(id.Pos)
			}
		})
		if a, ok := st.(*AssignStmt); ok {
			temps[a.Name] = true
		}
	})
	return pos, found
}

// DerivedClockRead reports whether the derived calendar name reads the clock:
// ClockRead over its derivation, following catalog references depth first.
// visiting holds the lower-cased names already entered, which cuts reference
// cycles (rejected elsewhere) and visits a shared dependency once.
func DerivedClockRead(name string, lookup ScriptLookup, visiting map[string]bool) bool {
	key := strings.ToLower(name)
	script, ok := lookup.DerivationOf(name)
	if !ok || visiting[key] {
		return false
	}
	visiting[key] = true
	_, clock := ClockRead(script, func(ref string) bool { return DerivedClockRead(ref, lookup, visiting) })
	return clock
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
