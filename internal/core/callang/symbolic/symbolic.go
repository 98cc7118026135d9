// Package symbolic lowers calendar expressions to periodic patterns at
// compile time: the symbolic pattern calculus of the calvet CV010–CV013
// diagnostics and of the pattern that answers /expand and next-instant
// queries (caldb.Prepared.Pattern).
//
// Eval walks an expression bottom-up, composing periodic.Pattern values
// through the window-independent operators — basic-calendar generation,
// union, difference, point-set intersection, during/overlaps/meets foreach
// groupings and their per-group selections (over one level of groups) —
// without materializing a single interval list. The result is the
// expression's infinite element list in closed form: expanding it over any
// window equals evaluating the expression over that window (away from
// generation-edge effects), which makes emptiness, equivalence, and
// selection-cardinality questions decidable before any evaluation runs.
//
// The calculus is deliberately partial. Window-anchored constructs (`today`,
// order-1 selections, flattened before/before-equals groupings, label
// selections, derivations that branch, wait or alert) have no
// window-independent element list, and some compositions have no compact
// periodic form; Eval reports ok=false for these and callers fall back to
// materialization. Eval also declines stored calendars, whose values change
// with every write, so calvet's verdicts never depend on them; EvalPatched
// lowers a stored list of points as the finite part of a periodic.Patched
// (caldb.Prepared.Pattern reads it). A nil pattern with ok=true is a proof
// that the expression is empty everywhere. End-relative selections over
// before/before-equals groupings ([n]/(X:<:Y), negative positions,
// all-negative ranges) are the exception: counting from the end of an
// unbounded prefix is window-independent, so they lower through the same
// periodic.ForeachSelect as every other grouping, with endOffsets as the
// pick.
package symbolic

import (
	"sync"
	"sync/atomic"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/core/callang"
	"calsys/internal/core/periodic"
)

// maxDepth bounds derivation-chain recursion (cyclic catalogs would
// otherwise loop forever).
const maxDepth = 32

// Eval lowers e — an expression whose evaluation ticks have granularity
// gran — to the symbolic pattern of its flattened element list, in tick
// offsets of gran. ok=false means the expression has no symbolic form and
// the caller must materialize; a nil pattern with ok=true proves the
// expression empty on every window. Derived-calendar names lower exactly
// when the plan inliner would replace them (callang.InlineBody): a name with
// a bounded lifespan is clipped when materialized and is therefore not the
// periodic list its derivation alone denotes.
func Eval(ch *chronology.Chronology, cat callang.ScriptLookup, e callang.Expr, gran chronology.Granularity) (*periodic.Pattern, bool) {
	l := &lowerer{ch: ch, cat: cat, gran: gran}
	return l.lower(e, 0)
}

type lowerer struct {
	ch    *chronology.Chronology
	cat   callang.ScriptLookup
	gran  chronology.Granularity
	basic bool // lowering a basic-only tree on a memo miss
	// stored reads stored calendars for a patched lowering (EvalPatched).
	stored Stored
}

// lower lowers a sub-expression. Only maximal basic-only sub-expressions and,
// inside them, basic calendar names (Basic) go through the memo, so a tree is
// checked and rendered once; it has no derivation chain for maxDepth to guard.
func (l *lowerer) lower(e callang.Expr, depth int) (*periodic.Pattern, bool) {
	if depth > maxDepth && !l.basic {
		return nil, false
	}
	if _, name := e.(*callang.Ident); l.basic || name || !callang.BasicOnly(e) {
		return l.node(e, depth)
	}
	return memoized(memoKey{l.ch.Epoch(), l.gran, e.String(), 0}, func() (*periodic.Pattern, bool) {
		// No catalog: a basic-only expression reads none.
		return (&lowerer{ch: l.ch, gran: l.gran, basic: true}).node(e, 0)
	})
}

// node lowers e's own operator over its lowered operands.
func (l *lowerer) node(e callang.Expr, depth int) (*periodic.Pattern, bool) {
	switch n := e.(type) {
	case *callang.Ident:
		if g, ok := chronology.LookupGranularity(n.Name); ok {
			return Basic(l.ch, g, l.gran)
		}
		inner, ok := callang.InlineBody(l.cat, n.Name)
		if !ok {
			return nil, false
		}
		return l.lower(inner, depth+1)
	case *callang.ForeachExpr:
		x, ok := l.lower(n.X, depth+1)
		if !ok {
			return nil, false
		}
		y, ok := l.lower(n.Y, depth+1)
		if !ok {
			return nil, false
		}
		return periodic.ForeachFlat(x, y, n.Op, n.Strict)
	case *callang.IntersectExpr:
		x, ok := l.lower(n.X, depth+1)
		if !ok {
			return nil, false
		}
		y, ok := l.lower(n.Y, depth+1)
		if !ok {
			return nil, false
		}
		return periodic.SetIntersect(x, y)
	case *callang.BinExpr:
		x, ok := l.lower(n.X, depth+1)
		if !ok {
			return nil, false
		}
		y, ok := l.lower(n.Y, depth+1)
		if !ok {
			return nil, false
		}
		switch n.Op {
		case '+':
			return periodic.SetUnion(x, y)
		case '-':
			return periodic.SetDiff(x, y)
		}
		return nil, false
	case *callang.SelectExpr:
		// Only per-group selection over a foreach grouping is
		// window-independent; [k]/DAYS counts from the evaluation window's
		// edge and has no symbolic form. Peel derived-calendar names the same
		// way the plan inliner would, so [2]/WORKWEEK sees the grouping.
		fe, ok := l.resolveForeach(n.X, depth+1)
		if !ok {
			return nil, false
		}
		if n.Pred.Check() != nil {
			return nil, false
		}
		// Over nested groups the plan picks per innermost group, which a
		// pattern of the flattened x cannot see: no symbolic form.
		if _, nested := l.resolveForeach(fe.X, depth+1); nested {
			return nil, false
		}
		x, ok := l.lower(fe.X, depth+1)
		if !ok {
			return nil, false
		}
		y, ok := l.lower(fe.Y, depth+1)
		if !ok {
			return nil, false
		}
		// A before/before-equals group is an unbounded prefix (count −1):
		// only a selection counting from its end ([n], negative positions,
		// all-negative ranges) is window-independent. The paper's
		// [n]/AM_BUS_DAYS:<:LDOM_HOL idiom lands here.
		return periodic.ForeachSelect(x, y, fe.Op, fe.Strict, func(size int) []int {
			if size < 0 {
				return endOffsets(n.Pred)
			}
			return n.Pred.Indices(size)
		})
	}
	// today, numbers, strings, label selections, generate()/caloperate()
	// calls: window-anchored or non-calendar — no symbolic form.
	return nil, false
}

// A basic-only expression (callang.BasicOnly: every name is a basic
// calendar) denotes the same element list under every catalog: only the
// chronology's epoch and the tick granularity shape its pattern. The memo
// keeps one lowering per (epoch, granularity, canonical text) for the whole
// process, so calvet's passes, every tenant's prepared patterns and the plan
// executor's generate ops share it — Bettini, Mascetti & Wang's one minimal
// periodic set per expression, computed once. Verdicts without a symbolic
// form and proofs of emptiness are kept too. The memo is bounded by
// memoBytes and emptied when full, like caldb's prepared tables: a process
// lowers a working set of tens of recurrences. Every generate op of every
// plan reads the memo: a hit takes no lock and allocates nothing (sync.Map),
// and counts on its own entry, padded so hits on different keys write no
// shared cache line.
var memo struct {
	entries                    sync.Map   // memoKey → *memoEntry
	mu                         sync.Mutex // serializes filing
	bytes, misses, resets, old int64      // old: the hits of entries a reset dropped
}

type (
	memoKey struct {
		epoch chronology.Civil
		gran  chronology.Granularity
		text  string
		// stored is the content key of the stored values a patched lowering
		// read (EvalPatched); 0 for a basic-only expression.
		stored uint64
	}
	memoEntry struct {
		hits atomic.Int64
		pat  *periodic.Pattern
		px   *periodic.Patched // a patched lowering's
		ok   bool
		_    [64]byte // the next entry's counter starts on another cache line
	}
)

// memoBytes bounds the memo; an entry costs its text, pattern and memoEntryBytes.
const memoBytes, memoEntryBytes = 8 << 20, 96

// memoized returns the memo's verdict for k, lowering and filing it on a miss.
func memoized(k memoKey, lower func() (*periodic.Pattern, bool)) (*periodic.Pattern, bool) {
	e := filed(k, func(e *memoEntry) int64 {
		if e.pat, e.ok = lower(); e.pat != nil {
			return e.pat.SizeBytes()
		}
		return 0
	})
	return e.pat, e.ok
}

// filed returns the memo's entry for k, filing a new one on a miss: lower
// fills it in and returns its size beyond the key and the entry.
func filed(k memoKey, lower func(*memoEntry) int64) *memoEntry {
	if v, hit := memo.entries.Load(k); hit {
		e := v.(*memoEntry)
		e.hits.Add(1)
		return e
	}
	e := &memoEntry{}
	size := memoEntryBytes + int64(len(k.text)) + lower(e)
	memo.mu.Lock()
	defer memo.mu.Unlock()
	if memo.misses++; memo.bytes+size > memoBytes {
		resetMemoLocked()
	}
	if v, filed := memo.entries.LoadOrStore(k, e); filed { // by a concurrent miss
		e = v.(*memoEntry)
	} else {
		memo.bytes += size
	}
	return e
}

func resetMemoLocked() {
	memo.entries.Range(func(k, v any) bool {
		memo.old += v.(*memoEntry).hits.Load()
		memo.entries.Delete(k)
		return true
	})
	memo.bytes, memo.resets = 0, memo.resets+1
}

// Basic returns the pattern of the basic calendar `of` in ticks of gran (the
// memo's depth-0 entry), which the plan executor's generate ops expand.
func Basic(ch *chronology.Chronology, of, gran chronology.Granularity) (*periodic.Pattern, bool) {
	return memoized(memoKey{ch.Epoch(), gran, of.String(), 0}, func() (*periodic.Pattern, bool) {
		p, err := periodic.ForBasicPair(ch, of, gran)
		return p, err == nil
	})
}

// MemoStats is a snapshot of the memo of lowered basic-only expressions.
type MemoStats struct {
	Entries int   `json:"entries"` // lowerings resident
	Bytes   int64 `json:"bytes"`   // their estimated bytes
	Hits    int64 `json:"hits"`    // lowerings served from the memo
	Misses  int64 `json:"misses"`  // lowerings computed
	Resets  int64 `json:"resets"`  // memos emptied because they were full
}

// Stats snapshots the memo's size and cumulative counters.
func Stats() MemoStats {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	st := MemoStats{Bytes: memo.bytes, Hits: memo.old, Misses: memo.misses, Resets: memo.resets}
	memo.entries.Range(func(_, v any) bool {
		st.Entries, st.Hits = st.Entries+1, st.Hits+v.(*memoEntry).hits.Load()
		return true
	})
	return st
}

// endOffsets is a selection's pick over an unbounded prefix: every term that
// counts from the end of the group becomes negative member offsets (−1 the
// last member, −2 the one before it, …): [n] → −1, a negative position → the
// position, an all-negative range → its offsets in ascending order. A term
// anchored to the front of the group — a positive position or a range with a
// positive endpoint — becomes position 0, which ForeachSelect refuses: over
// an unbounded prefix such a selection is window-anchored and must
// materialize.
func endOffsets(s calendar.Selection) []int {
	out := make([]int, 0, len(s.Items))
	for _, it := range s.Items {
		switch {
		case it.Last:
			out = append(out, -1)
		case it.Range && it.From < 0 && it.To < 0:
			for o := it.From; o <= it.To; o++ {
				out = append(out, o)
			}
		case !it.Range && it.Pos < 0:
			out = append(out, it.Pos)
		default:
			out = append(out, 0)
		}
	}
	return out
}

// resolveForeach peels inlinable derivation names off e until a foreach
// grouping (or anything else) surfaces.
func (l *lowerer) resolveForeach(e callang.Expr, depth int) (*callang.ForeachExpr, bool) {
	for d := depth; d <= maxDepth; d++ {
		switch n := e.(type) {
		case *callang.ForeachExpr:
			return n, true
		case *callang.Ident:
			inner, ok := callang.InlineBody(l.cat, n.Name)
			if !ok {
				return nil, false
			}
			e = inner
		default:
			return nil, false
		}
	}
	return nil, false
}

// GroupCards returns the exact minimum and maximum group cardinality the
// foreach grouping fe ever produces, when both operands lower symbolically.
// A selection position beyond max provably never selects anything (CV012);
// positions within [1, min] always do.
func GroupCards(ch *chronology.Chronology, cat callang.ScriptLookup, fe *callang.ForeachExpr, gran chronology.Granularity) (min, max int, ok bool) {
	l := &lowerer{ch: ch, cat: cat, gran: gran}
	x, ok := l.lower(fe.X, 0)
	if !ok {
		return 0, 0, false
	}
	y, ok := l.lower(fe.Y, 0)
	if !ok {
		return 0, 0, false
	}
	return periodic.ForeachCards(x, y, fe.Op)
}

// EmptyKey is the equivalence key of the provably empty element list.
const EmptyKey = "empty"

// ListKey returns a cross-granularity equivalence key for the expression's
// element list: the canonical string of the list re-expressed in epoch
// seconds. Two expressions with equal keys cover the same elements on every
// window, whatever granularities they were written in. ok=false means the
// expression (or the seconds conversion) has no symbolic form.
func ListKey(ch *chronology.Chronology, cat callang.ScriptLookup, e callang.Expr, gran chronology.Granularity) (string, bool) {
	p, ok := Eval(ch, cat, e, gran)
	if !ok {
		return "", false
	}
	return secondsKey(ch, p, gran, false)
}

// FiringKey returns a cross-granularity key for the instants at which a
// temporal rule over the lowered element list p (tick offsets of gran) fires:
// the canonical seconds pattern of the element starts. Rules with equal
// firing keys fire at identical instants and can be merged. It takes the
// pattern, not the expression, so the caller chooses the lowering (the rule
// engine's keeps lifespan-bounded names opaque).
func FiringKey(ch *chronology.Chronology, p *periodic.Pattern, gran chronology.Granularity) (string, bool) {
	return secondsKey(ch, p, gran, true)
}

func secondsKey(ch *chronology.Chronology, p *periodic.Pattern, gran chronology.Granularity, starts bool) (string, bool) {
	sp, ok := p.InSeconds(ch, gran)
	if !ok {
		return "", false
	}
	if sp == nil {
		return EmptyKey, true
	}
	if starts {
		// Starts after the seconds conversion, so a daily rule and an
		// hourly rule that both fire at midnight get the same key.
		sp = sp.Starts()
	}
	return sp.Canonical().String(), true
}
