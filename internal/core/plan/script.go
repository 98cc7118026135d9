// script.go is the script runner: it executes a script's statements one at a
// time, each expression prepared, compiled and run over the whole requested
// window with the temporaries assigned so far. It is what gives `if`, `while`
// and alert returns their meaning, and the only evaluation of the scripts
// that use them (the paper's EMP-DAYS and last-trading-day scripts) and of
// derivations with a bounded lifespan. A straight-line script is never run
// for a catalog reference: it is the expression callang.Script.AsExpr
// substitutes it into, inlined where it is referenced. RunScript runs those
// too, as the oracle that expression is tested against
// (serve.TestStraightLineScriptsMatchRunner), not as a path a caller picks.
package plan

import (
	"fmt"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/interval"
)

// Value is the result of a calendar script: either a calendar or an alert
// string (the last-trading-day script of §3.3 returns "LAST TRADING DAY").
type Value struct {
	Cal *calendar.Calendar
	Str string
}

// IsString reports whether the value is an alert string.
func (v Value) IsString() bool { return v.Cal == nil }

// String renders the value.
func (v Value) String() string {
	if v.IsString() {
		return fmt.Sprintf("%q", v.Str)
	}
	return v.Cal.String()
}

// RunScript evaluates a calendar script over a civil-date window. The
// script's granularity is inferred from the calendars it references.
func RunScript(env *Env, s *callang.Script, from, to chronology.Civil) (Value, error) {
	gran := callang.AnalyzeScript(s, env.Cat).TickGran
	win, err := CivilWindow(env.Chron, gran, from, to)
	if err != nil {
		return Value{}, err
	}
	return runScriptAt(env, s, gran, win, newExecState())
}

// runScript evaluates a script on behalf of an OpDerived node: the caller's
// granularity and window are converted to the script's own (possibly finer)
// granularity.
func runScript(env *Env, s *callang.Script, callerGran chronology.Granularity, callerWin interval.Interval, st *execState) (Value, error) {
	gran := callang.AnalyzeScript(s, env.Cat).TickGran
	if callerGran.Finer(gran) {
		gran = callerGran
	}
	win := convertWindow(env.Chron, callerGran, callerWin, gran)
	return runScriptAt(env, s, gran, win, st)
}

// convertWindow re-expresses a tick window in another granularity, covering
// at least the same span.
func convertWindow(ch *chronology.Chronology, from chronology.Granularity, win interval.Interval, to chronology.Granularity) interval.Interval {
	if from == to {
		return win
	}
	lo := ch.TickAt(to, ch.UnitStart(from, win.Lo))
	hi := ch.TickAt(to, ch.UnitEndExcl(from, win.Hi)-1)
	return interval.Interval{Lo: lo, Hi: hi}
}

func runScriptAt(env *Env, s *callang.Script, gran chronology.Granularity, win interval.Interval, st *execState) (Value, error) {
	r := &runner{env: env, gran: gran, win: win, st: st, vars: map[string]*calendar.Calendar{}}
	v, returned, err := r.stmts(s.Stmts)
	if err != nil {
		return Value{}, err
	}
	if !returned {
		// A script whose final statement is a bare expression yields that
		// expression's value (the form of one-expression derivations).
		if r.lastExpr != nil {
			return Value{Cal: r.lastExpr}, nil
		}
		return Value{}, fmt.Errorf("plan: script finished without return")
	}
	return v, nil
}

type runner struct {
	env  *Env
	gran chronology.Granularity
	win  interval.Interval
	st   *execState
	vars map[string]*calendar.Calendar
	// lastExpr is the value of the most recent bare-expression statement,
	// the implicit result of return-less derivations.
	lastExpr *calendar.Calendar
}

func (r *runner) eval(e callang.Expr) (*calendar.Calendar, error) {
	varsSet := make(map[string]bool, len(r.vars))
	for k := range r.vars {
		varsSet[k] = true
	}
	prepped, _, err := Prepare(r.env, e, varsSet)
	if err != nil {
		return nil, err
	}
	p, err := Compile(r.env, prepped, varsSet, r.gran, r.win)
	if err != nil {
		return nil, err
	}
	return p.exec(r.env, r.vars, r.st)
}

// cond evaluates a condition: a null (empty) calendar is false (§3.3).
func (r *runner) cond(e callang.Expr) (bool, error) {
	c, err := r.eval(e)
	if err != nil {
		return false, err
	}
	return !c.IsEmpty(), nil
}

func (r *runner) stmts(ss []callang.Stmt) (Value, bool, error) {
	for _, st := range ss {
		v, returned, err := r.stmt(st)
		if err != nil || returned {
			return v, returned, err
		}
	}
	return Value{}, false, nil
}

func (r *runner) stmt(st callang.Stmt) (Value, bool, error) {
	switch n := st.(type) {
	case *callang.AssignStmt:
		c, err := r.eval(n.X)
		if err != nil {
			return Value{}, false, fmt.Errorf("in %s: %w", n, err)
		}
		r.vars[n.Name] = c
		return Value{}, false, nil
	case *callang.ExprStmt:
		c, err := r.eval(n.X)
		if err != nil {
			return Value{}, false, fmt.Errorf("in %s: %w", n, err)
		}
		r.lastExpr = c
		return Value{}, false, nil
	case *callang.ReturnStmt:
		if s, ok := n.X.(*callang.StringLit); ok {
			return Value{Str: s.Val}, true, nil
		}
		c, err := r.eval(n.X)
		if err != nil {
			return Value{}, false, fmt.Errorf("in %s: %w", n, err)
		}
		return Value{Cal: c}, true, nil
	case *callang.IfStmt:
		ok, err := r.cond(n.Cond)
		if err != nil {
			return Value{}, false, fmt.Errorf("in if condition: %w", err)
		}
		if ok {
			return r.stmts(n.Then)
		}
		return r.stmts(n.Else)
	case *callang.WhileStmt:
		for i := 0; ; i++ {
			if i >= r.env.maxWhile() {
				return Value{}, false, fmt.Errorf("plan: while loop exceeded %d iterations", r.env.maxWhile())
			}
			ok, err := r.cond(n.Cond)
			if err != nil {
				return Value{}, false, fmt.Errorf("in while condition: %w", err)
			}
			if !ok {
				return Value{}, false, nil
			}
			if len(n.Body) == 0 {
				// The paper's "do nothing" wait loop: time must advance
				// externally between probes.
				if r.env.Wait == nil {
					return Value{}, false, fmt.Errorf("plan: waiting while-loop needs a Wait hook in the environment")
				}
				if err := r.env.Wait(); err != nil {
					return Value{}, false, fmt.Errorf("plan: wait aborted: %w", err)
				}
				continue
			}
			v, returned, err := r.stmts(n.Body)
			if err != nil || returned {
				return v, returned, err
			}
		}
	}
	return Value{}, false, fmt.Errorf("plan: unknown statement %T", st)
}
