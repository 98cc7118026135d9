package calvet

import (
	"strings"

	"calsys/internal/chronology"
	"calsys/internal/core/callang"
)

// scriptRef is one external calendar reference of a script, with the
// position of its first occurrence.
type scriptRef struct {
	name string
	pos  callang.Pos
}

// externalRefs lists the calendar names a script references outside its own
// temporaries, `today`, and the basic calendars, ordered by first
// occurrence.
func externalRefs(s *callang.Script) []scriptRef {
	temps := callang.AssignedNames(s.Stmts)
	var refs []scriptRef
	seen := map[string]bool{}
	callang.WalkStmts(s.Stmts, func(_ callang.Stmt, x callang.Expr) {
		callang.Walk(x, func(e callang.Expr) {
			n, ok := e.(*callang.Ident)
			if !ok || callang.IsToday(n.Name) || temps[n.Name] {
				return
			}
			if _, err := chronology.ParseGranularity(n.Name); err == nil {
				return
			}
			key := strings.ToLower(n.Name)
			if seen[key] {
				return
			}
			seen[key] = true
			refs = append(refs, scriptRef{name: n.Name, pos: n.Pos})
		})
	})
	return refs
}

// maxCycleDepth bounds the CV002 walk through the catalog.
const maxCycleDepth = 64

// checkCycles is CV002: follow every catalog reference of the script being
// vetted and report any chain that leads back to a calendar already on the
// chain — in particular back to the name being defined. The diagnostic
// carries the position of the reference in the vetted script that enters
// the cycle, and its message carries the full path (A → B → A).
func (v *vetter) checkCycles(s *callang.Script) {
	root := v.opts.SelfName
	if root == "" {
		root = "script"
	}
	reported := map[string]bool{}
	// acyclic memoizes names whose whole reachable graph is cycle-free, so
	// shared diamonds are walked once.
	acyclic := map[string]bool{}

	var walk func(script *callang.Script, path []string, entryPos callang.Pos, topLevel bool)
	walk = func(script *callang.Script, path []string, entryPos callang.Pos, topLevel bool) {
		if len(path) > maxCycleDepth {
			return
		}
		for _, r := range externalRefs(script) {
			key := strings.ToLower(r.name)
			pos := entryPos
			if topLevel {
				pos = r.pos
			}
			if v.opts.SelfName != "" && strings.EqualFold(r.name, v.opts.SelfName) {
				v.reportCycle(pos, append(append([]string{}, path...), v.opts.SelfName), reported)
				continue
			}
			if idx := indexFold(path, r.name); idx >= 0 {
				v.reportCycle(pos, append(append([]string{}, path[idx:]...), r.name), reported)
				continue
			}
			if acyclic[key] {
				continue
			}
			next, ok := v.cat.DerivationOf(r.name)
			if !ok {
				continue
			}
			before := len(v.diags)
			walk(next, append(path, r.name), pos, false)
			if len(v.diags) == before {
				acyclic[key] = true
			}
		}
	}
	walk(s, []string{root}, callang.Pos{}, true)
}

func (v *vetter) reportCycle(pos callang.Pos, cycle []string, reported map[string]bool) {
	msg := callang.CyclePath(cycle)
	if reported[msg] {
		return
	}
	reported[msg] = true
	v.report(pos, Error, CodeCycle, "circular derivation: %s", msg)
}

func indexFold(path []string, name string) int {
	for i, p := range path {
		if strings.EqualFold(p, name) {
			return i
		}
	}
	return -1
}

// checkVolatile is CV008: a derivation that reads `today` (directly, or
// through a volatile catalog calendar, or via a clock-wait while-loop) is
// re-evaluated on every use and bypasses the materialization cache. The
// diagnostic sits at the first clock read in the vetted source.
func (v *vetter) checkVolatile(s *callang.Script) {
	pos, volatile := callang.ClockRead(s, v.nameVolatile)
	if !volatile {
		return
	}
	v.report(pos, Warning, CodeVolatile,
		"derivation reads the clock (`today` or a volatile calendar): results bypass the materialization cache and change from day to day")
}

// nameVolatile reports whether a catalog calendar is volatile, preferring
// the catalog's own memoized answer when it offers one.
func (v *vetter) nameVolatile(name string) bool {
	if vc, ok := v.cat.(volatilityCatalog); ok {
		return vc.VolatileOf(name)
	}
	return callang.DerivedClockRead(name, v.cat, map[string]bool{})
}
