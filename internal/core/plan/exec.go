package plan

import (
	"fmt"
	"math"
	"strings"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/interval"
	"calsys/internal/core/matcache"
	"calsys/internal/core/periodic"
)

// regVal is one register value: an eagerly materialized calendar, or the
// exact periodic pattern of a basic calendar standing for its generation over
// win. Pattern-backed values stay unexpanded until a consumer needs the
// interval list; a selection consumer never expands them at all, answering by
// index arithmetic on the pattern.
type regVal struct {
	cal  *calendar.Calendar
	pat  *periodic.Pattern
	win  interval.Interval // the inferred generation window pat stands over
	gran chronology.Granularity
}

func eager(c *calendar.Calendar) *regVal { return &regVal{cal: c} }

// materialize expands a pattern-backed value over exactly its inferred
// generation window, memoizing the result for later consumers.
func (v *regVal) materialize() *calendar.Calendar {
	if v.cal == nil {
		v.cal = calendar.ExpandPattern(v.gran, v.pat, v.win)
	}
	return v.cal
}

// execState carries per-evaluation caches shared across the plans of one
// script run, so that a calendar referenced by several statements is
// generated once (the paper's shared-calendar marking).
type execState struct {
	genCache map[genKey]*regVal
	depth    int
	// deriving is the stack of opaque derivations currently being evaluated,
	// used to report the full path of a reference cycle (A → B → A).
	deriving []string
}

// maxDerivedDepth bounds nested opaque-derivation evaluation.
const maxDerivedDepth = 16

func newExecState() *execState {
	return &execState{genCache: map[genKey]*regVal{}}
}

// Exec runs the plan and returns the result calendar. vars supplies script
// temporaries referenced by OpVar (nil when none).
func (p *Plan) Exec(env *Env, vars map[string]*calendar.Calendar) (*calendar.Calendar, error) {
	return p.exec(env, vars, newExecState())
}

func (p *Plan) exec(env *Env, vars map[string]*calendar.Calendar, st *execState) (*calendar.Calendar, error) {
	regs := make([]*regVal, len(p.Ops))
	getVal := func(r Reg) (*regVal, error) {
		if r < 0 || int(r) >= len(regs) || regs[r] == nil {
			return nil, fmt.Errorf("plan: register %%t%d not populated", r)
		}
		return regs[r], nil
	}
	get := func(r Reg) (*calendar.Calendar, error) {
		v, err := getVal(r)
		if err != nil {
			return nil, err
		}
		return v.materialize(), nil
	}
	for i, op := range p.Ops {
		v, err := p.execVal(env, vars, st, op, getVal, get)
		if err != nil {
			return nil, fmt.Errorf("plan: %s: %w", op, err)
		}
		regs[i] = v
	}
	v, err := getVal(p.Result)
	if err != nil {
		return nil, err
	}
	return v.materialize(), nil
}

// genKey identifies one generation within a run: basic calendar, tick
// granularity, window.
type genKey struct {
	of, gran chronology.Granularity
	win      interval.Interval
}

// execVal evaluates ops whose results can stay pattern-backed — OpGenerate
// (produces patterns) and OpSelect (consumes them without materializing) —
// and defers everything else to the materialized execOp path.
func (p *Plan) execVal(env *Env, vars map[string]*calendar.Calendar, st *execState, op Op, getVal func(Reg) (*regVal, error), get func(Reg) (*calendar.Calendar, error)) (*regVal, error) {
	switch op.Kind {
	case OpGenerate:
		key := genKey{op.Of, p.Gran, op.Win}
		if v, ok := st.genCache[key]; ok && !env.DisableSharing {
			return v, nil
		}
		v, ok := p.patternValue(env, op)
		if !ok {
			// No cache to keep a pattern in (or an invalid pair, which
			// GenerateFull reports): generate the window directly — the
			// definition the patterns are tested against.
			c, err := calendar.GenerateFull(env.Chron, op.Of, p.Gran, op.Win.Lo, op.Win.Hi)
			if err != nil {
				return nil, err
			}
			v = eager(c)
		}
		st.genCache[key] = v
		return v, nil
	case OpSelect:
		v, err := getVal(op.A)
		if err != nil {
			return nil, err
		}
		if v.cal == nil && v.pat != nil {
			if c, ok := selectPattern(op.Sel, v); ok {
				return eager(c), nil
			}
		}
		c, err := calendar.Select(op.Sel, v.materialize())
		if err != nil {
			return nil, err
		}
		return eager(c), nil
	}
	c, err := p.execOp(env, vars, st, op, get)
	if err != nil {
		return nil, err
	}
	return eager(c), nil
}

// patternValue answers an OpGenerate with the pair's exact all-time pattern,
// left unexpanded for the consumer, when the environment has a shared cache
// to keep it in: the pattern is built once per (of, gran) and process, and
// every later window of the pair — from any evaluation — is a cache hit. A
// self-contained environment gets ok=false rather than a pattern per run:
// building MONTHS in DAYS walks the 400-year Gregorian cycle, far more than
// generating a typical window.
func (p *Plan) patternValue(env *Env, op Op) (*regVal, bool) {
	if env.Mat == nil || env.DisableSharing {
		return nil, false
	}
	key := matcache.Key{Scope: env.MatScope, ID: "G|" + op.Of.String(), Gran: p.Gran}
	pat, ok := env.Mat.GetPattern(key)
	if !ok {
		var err error
		if pat, err = periodic.ForBasicPair(env.Chron, op.Of, p.Gran); err != nil {
			return nil, false
		}
		env.Mat.PutPattern(key, pat)
	}
	return &regVal{pat: pat, win: op.Win, gran: p.Gran}, true
}

// selectPattern answers a selection over a pattern-backed generation by
// index arithmetic: the cardinality of the window and each selected element
// are O(1) pattern lookups, so [k]-style predicates never materialize the
// list they select from. Returns ok=false to fall back to the materialized
// path (bad predicate, or a window too large to index with int).
func selectPattern(sel calendar.Selection, v *regVal) (*calendar.Calendar, bool) {
	if err := sel.Check(); err != nil {
		return nil, false
	}
	first, last, ok := v.pat.IndexRange(v.win)
	if !ok {
		return calendar.Empty(v.gran), true
	}
	n := last - first + 1
	if n <= 0 || n > math.MaxInt32 {
		return nil, false
	}
	idx := sel.Indices(int(n))
	ivs := make([]interval.Interval, 0, len(idx))
	for _, i := range idx {
		ivs = append(ivs, v.pat.Interval(first+int64(i)))
	}
	c, err := calendar.FromIntervals(v.gran, ivs)
	if err != nil {
		return nil, false
	}
	return c, true
}

func (p *Plan) execOp(env *Env, vars map[string]*calendar.Calendar, st *execState, op Op, get func(Reg) (*calendar.Calendar, error)) (*calendar.Calendar, error) {
	switch op.Kind {
	case OpGenerateCall:
		c, err := calendar.Generate(env.Chron, op.Of, op.In, op.Win.Lo, op.Win.Hi)
		if err != nil {
			return nil, err
		}
		return calendar.ConvertGran(env.Chron, c, p.Gran)
	case OpUnit:
		return calendar.Unit(env.Chron, op.Of, p.Gran, op.Tick)
	case OpLoad:
		c, ok := env.Cat.StoredCalendar(op.Name)
		if !ok {
			return nil, fmt.Errorf("stored calendar %q disappeared", op.Name)
		}
		conv, err := calendar.ConvertGran(env.Chron, c, p.Gran)
		if err != nil {
			return nil, err
		}
		if ls, ok := lifespanIn(env, op.Name, p.Gran); ok {
			return calendar.ClipToInterval(conv, ls)
		}
		return conv, nil
	case OpDerived:
		for _, active := range st.deriving {
			if strings.EqualFold(active, op.Name) {
				return nil, fmt.Errorf("derivation cycle: %s",
					callang.CyclePath(append(append([]string{}, st.deriving...), op.Name)))
			}
		}
		if st.depth >= maxDerivedDepth {
			return nil, fmt.Errorf("derivation of %q nested deeper than %d: %s",
				op.Name, maxDerivedDepth, callang.CyclePath(append(append([]string{}, st.deriving...), op.Name)))
		}
		script, ok := env.Cat.DerivationOf(op.Name)
		if !ok {
			return nil, fmt.Errorf("derived calendar %q disappeared", op.Name)
		}
		win := op.Win
		if ls, ok := lifespanIn(env, op.Name, p.Gran); ok {
			cut, overlap := win.Intersect(ls)
			if !overlap {
				// The requested window lies wholly outside the calendar's
				// lifespan: it describes no time points there.
				return calendar.Empty(p.Gran), nil
			}
			win = cut
		}
		dkey, cacheable := p.derivedKey(env, op.Name)
		if cacheable {
			if c, ok := env.Mat.Get(dkey, win); ok {
				return c, nil
			}
		}
		eval := func() (*calendar.Calendar, error) {
			st.depth++
			st.deriving = append(st.deriving, op.Name)
			v, err := runScript(env, script, p.Gran, win, st)
			st.deriving = st.deriving[:len(st.deriving)-1]
			st.depth--
			if err != nil {
				return nil, fmt.Errorf("evaluating %q: %w", op.Name, err)
			}
			if v.Cal == nil {
				return nil, fmt.Errorf("derived calendar %q returned an alert string, not a calendar", op.Name)
			}
			return calendar.ConvertGran(env.Chron, v.Cal, p.Gran)
		}
		if !cacheable {
			return eval()
		}
		if st.depth > 0 {
			// Nested derived references evaluate inline rather than flying:
			// depth is only incremented inside a flight leader's eval, so
			// keeping nested refs out of Do means a leader never waits on
			// another flight at its own level — the wait graph stays acyclic
			// (expression → derived).
			out, err := eval()
			if err == nil {
				env.Mat.Put(dkey, win, out)
			}
			return out, err
		}
		return env.Mat.Do(dkey, win, eval)
	case OpVar:
		c, ok := vars[op.Name]
		if !ok {
			return nil, fmt.Errorf("unbound variable %q", op.Name)
		}
		return calendar.ConvertGran(env.Chron, c, p.Gran)
	case OpToday:
		if env.Now == nil {
			return nil, fmt.Errorf("`today` is unavailable: no clock in environment")
		}
		tick := env.Chron.TickAt(p.Gran, env.Now())
		return calendar.FromPoints(p.Gran, []chronology.Tick{tick})
	case OpConst:
		return op.Lit, nil
	case OpForeach:
		a, err := get(op.A)
		if err != nil {
			return nil, err
		}
		b, err := get(op.B)
		if err != nil {
			return nil, err
		}
		return calendar.Foreach(a, op.ListOp, op.Strict, b)
	case OpIntersect:
		return binSet(op, get, calendar.Intersect)
	case OpUnion:
		return binSet(op, get, calendar.Union)
	case OpDiff:
		return binSet(op, get, calendar.Diff)
	case OpCaloperate:
		a, err := get(op.A)
		if err != nil {
			return nil, err
		}
		return calendar.Caloperate(a, op.Counts)
	}
	return nil, fmt.Errorf("unimplemented op kind %d", int(op.Kind))
}

// derivedKey returns the shared-cache key for a derived calendar's
// materialization at this plan's granularity, and whether caching is sound:
// the catalog must report a generation (for invalidation) and must vouch
// that the calendar is not volatile (no `today`, no clock waits, directly or
// transitively).
func (p *Plan) derivedKey(env *Env, name string) (matcache.Key, bool) {
	if env.Mat == nil || env.DisableSharing {
		return matcache.Key{}, false
	}
	vc, ok := env.Cat.(VersionedCatalog)
	if !ok {
		return matcache.Key{}, false
	}
	volc, ok := env.Cat.(VolatilityCatalog)
	if !ok || volc.VolatileOf(name) {
		return matcache.Key{}, false
	}
	return matcache.Key{
		Scope:   env.MatScope,
		ID:      "D|" + strings.ToLower(name),
		Version: vc.CatalogGeneration(),
		Gran:    p.Gran,
	}, true
}

// lifespanIn converts a calendar's day-tick lifespan to granularity g, when
// the catalog declares one that bounds it (callang.BoundedLifespan).
func lifespanIn(env *Env, name string, g chronology.Granularity) (interval.Interval, bool) {
	lo, hi, ok := callang.BoundedLifespan(env.Cat, name)
	if !ok {
		return interval.Interval{}, false
	}
	return convertWindow(env.Chron, chronology.Day, interval.Interval{Lo: lo, Hi: hi}, g), true
}

func binSet(op Op, get func(Reg) (*calendar.Calendar, error), f func(a, b *calendar.Calendar) (*calendar.Calendar, error)) (*calendar.Calendar, error) {
	a, err := get(op.A)
	if err != nil {
		return nil, err
	}
	b, err := get(op.B)
	if err != nil {
		return nil, err
	}
	// The set operators require order-1 operands; foreach chains can leave
	// order-2 results whose sub-structure is no longer meaningful to a
	// point-set operation, so flatten first (a view, for a grouping or a
	// selection result).
	return f(a.Flatten(), b.Flatten())
}

// ExprNode aliases the language's expression type for callers that only
// import plan.
type ExprNode = callang.Expr

// Evaluate prepares, compiles and executes a calendar expression over a
// civil-date window.
func Evaluate(env *Env, e ExprNode, from, to chronology.Civil) (*calendar.Calendar, error) {
	p, err := CompileExpr(env, e, nil, from, to)
	if err != nil {
		return nil, err
	}
	return p.Exec(env, nil)
}

// EvaluateWindow is Evaluate with an explicit tick window at an explicit
// granularity (no inference).
func EvaluateWindow(env *Env, e ExprNode, gran chronology.Granularity, win interval.Interval) (*calendar.Calendar, error) {
	prepped, _, err := Prepare(env, e, nil)
	if err != nil {
		return nil, err
	}
	p, err := Compile(env, prepped, nil, gran, win)
	if err != nil {
		return nil, err
	}
	return p.Exec(env, nil)
}
