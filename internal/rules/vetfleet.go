// vetfleet.go is the fleet-wide rule dedup analysis: every temporal rule's
// prepared calendar expression is canonicalized — symbolically, to the
// periodic pattern of its firing instants, when the calculus can lower it —
// and rules with identical canonical forms are reported as merge candidates.
// On a fleet where many tenants define "first day of month" in slightly
// different spellings, this finds every group that fires on identical
// instants without evaluating a single window.
package rules

import (
	"fmt"
	"sort"
	"strings"

	"calsys/internal/core/callang/symbolic"
)

// MergeGroup is one set of temporal rules that provably fire at identical
// instants and can be merged into a single rule (or rewired to share one
// action list).
type MergeGroup struct {
	// Key is the shared canonical form: the seconds-canonical firing pattern
	// when Exact, else the shared prepared-plan rendering.
	Key string
	// Exact reports whether the group was proven by the symbolic calculus
	// (equal firing patterns even across different spellings and
	// granularities). Inexact groups share a prepared plan verbatim — still
	// a guaranteed match, but only for syntactically convergent expressions.
	Exact bool
	// Rules are the member rule names, sorted.
	Rules []string
}

// String renders the merge suggestion the fleet analyzer prints.
func (g MergeGroup) String() string {
	return fmt.Sprintf("rules %s fire on identical instants — merge them",
		strings.Join(g.Rules, ", "))
}

// VetFleet canonicalizes every temporal rule's calendar expression and
// groups rules firing on identical instants. Expressions the symbolic
// calculus can lower are keyed by their canonical firing pattern in epoch
// seconds (so a daily rule and a first-hour-of-day rule group together);
// the rest fall back to the prepared-plan rendering, which still groups
// syntactic duplicates. Rules whose expressions no longer prepare (e.g. a
// referenced calendar was dropped) are skipped. The pass is linear in the
// fleet size: one lowering per rule, no evaluation.
func (e *Engine) VetFleet() []MergeGroup {
	e.mu.Lock()
	rules := make([]*temporalRule, 0, len(e.temporal))
	for _, r := range e.temporal {
		rules = append(rules, r)
	}
	e.mu.Unlock()

	env := e.cal.Env()
	byKey := map[string]*MergeGroup{}
	for _, r := range rules {
		l, err := e.cal.Prepared("", r.src).Lowered()
		if err != nil {
			continue
		}
		key := "plan|" + l.PlanKey
		exact := false
		if p, ok := symbolic.Eval(env.Chron, env.Cat, l.Expr, l.Gran); ok {
			if k, kok := symbolic.FiringKey(env.Chron, p, l.Gran); kok {
				key, exact = "sym|"+k, true
			}
		}
		g := byKey[key]
		if g == nil {
			g = &MergeGroup{Key: key, Exact: exact}
			byKey[key] = g
		}
		g.Rules = append(g.Rules, r.name)
	}

	var out []MergeGroup
	for _, g := range byKey {
		if len(g.Rules) < 2 {
			continue
		}
		sort.Strings(g.Rules)
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rules[0] < out[j].Rules[0] })
	return out
}
