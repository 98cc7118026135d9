package postquel

import (
	"fmt"
	"strings"

	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/store"
)

// evalCtx carries per-statement evaluation state: the current tuple, tuple
// bindings (NEW/CURRENT in rule actions), and the per-query cache of
// evaluated calendar expressions.
type evalCtx struct {
	eng   *Engine
	table *store.Table
	row   store.Row
	binds map[string]boundTuple
	// calCache holds calendars evaluated once per statement, keyed by
	// expression source.
	calCache map[string]*calendar.Calendar
	// calWindow is the civil window calendars are evaluated over for this
	// statement (derived from the table's date columns).
	calFrom, calTo chronology.Civil
	hasWindow      bool
}

// boundTuple is a named tuple binding (NEW, CURRENT, or a table name).
type boundTuple struct {
	schema store.Schema
	row    store.Row
}

func (c *evalCtx) lookupCol(qual, name string) (store.Value, error) {
	if qual != "" {
		if b, ok := c.binds[strings.ToUpper(qual)]; ok {
			i := b.schema.ColIndex(name)
			if i < 0 {
				return store.Null, fmt.Errorf("postquel: %s has no column %q", qual, name)
			}
			if b.row == nil {
				return store.Null, nil
			}
			return b.row[i], nil
		}
		if c.table == nil || !strings.EqualFold(qual, c.table.Name) {
			return store.Null, fmt.Errorf("postquel: unknown tuple variable %q", qual)
		}
	}
	if c.table == nil {
		return store.Null, fmt.Errorf("postquel: column %q outside a table context", name)
	}
	i := c.table.Schema.ColIndex(name)
	if i < 0 {
		return store.Null, fmt.Errorf("postquel: table %s has no column %q", c.table.Name, name)
	}
	if c.row == nil {
		return store.Null, fmt.Errorf("postquel: column %q outside a tuple context", name)
	}
	return c.row[i], nil
}

func (c *evalCtx) eval(x expr) (store.Value, error) {
	switch n := x.(type) {
	case *litExpr:
		return n.v, nil
	case *colExpr:
		return c.lookupCol(n.qual, n.name)
	case *notExpr:
		v, err := c.eval(n.x)
		if err != nil {
			return store.Null, err
		}
		if v.T != store.TBool {
			return store.Null, fmt.Errorf("postquel: not applied to %v", v.T)
		}
		return store.NewBool(!v.B), nil
	case *binExpr:
		return c.evalBin(n)
	case *callExpr:
		return c.evalCall(n)
	case *calMemberExpr:
		return c.evalCalMember(n)
	}
	return store.Null, fmt.Errorf("postquel: cannot evaluate %T", x)
}

func (c *evalCtx) evalBool(x expr) (bool, error) {
	v, err := c.eval(x)
	if err != nil {
		return false, err
	}
	if v.T != store.TBool {
		return false, fmt.Errorf("postquel: condition evaluates to %v, not bool", v.T)
	}
	return v.B, nil
}

// normalizePair coerces text to date when compared with a date.
func normalizePair(l, r store.Value) (store.Value, store.Value, error) {
	if l.T == store.TDate && r.T == store.TText {
		rr, err := r.CoerceTo(store.TDate)
		return l, rr, err
	}
	if l.T == store.TText && r.T == store.TDate {
		ll, err := l.CoerceTo(store.TDate)
		return ll, r, err
	}
	return l, r, nil
}

func (c *evalCtx) evalBin(n *binExpr) (store.Value, error) {
	// Short-circuit booleans.
	if n.op == "and" || n.op == "or" {
		lb, err := c.evalBool(n.l)
		if err != nil {
			return store.Null, err
		}
		if n.op == "and" && !lb {
			return store.NewBool(false), nil
		}
		if n.op == "or" && lb {
			return store.NewBool(true), nil
		}
		rb, err := c.evalBool(n.r)
		if err != nil {
			return store.Null, err
		}
		return store.NewBool(rb), nil
	}
	l, err := c.eval(n.l)
	if err != nil {
		return store.Null, err
	}
	r, err := c.eval(n.r)
	if err != nil {
		return store.Null, err
	}
	l, r, err = normalizePair(l, r)
	if err != nil {
		return store.Null, err
	}
	switch n.op {
	case "=", "!=":
		eq := store.Equal(l, r)
		if n.op == "!=" {
			eq = !eq
		}
		return store.NewBool(eq), nil
	case "<", "<=", ">", ">=":
		cmp, err := store.Compare(l, r)
		if err != nil {
			return store.Null, err
		}
		var b bool
		switch n.op {
		case "<":
			b = cmp < 0
		case "<=":
			b = cmp <= 0
		case ">":
			b = cmp > 0
		case ">=":
			b = cmp >= 0
		}
		return store.NewBool(b), nil
	case "+", "-", "*", "/":
		return arith(n.op, l, r)
	}
	return store.Null, fmt.Errorf("postquel: unknown operator %q", n.op)
}

func arith(op string, l, r store.Value) (store.Value, error) {
	// Date arithmetic: date ± int days; date - date = days.
	if l.T == store.TDate {
		switch {
		case r.T == store.TInt && (op == "+" || op == "-"):
			d := r.I
			if op == "-" {
				d = -d
			}
			return store.NewDate(l.D.AddDays(d)), nil
		case r.T == store.TDate && op == "-":
			return store.NewInt(l.D.Rata() - r.D.Rata()), nil
		}
		return store.Null, fmt.Errorf("postquel: unsupported date arithmetic %v %s %v", l.T, op, r.T)
	}
	if l.T == store.TText && r.T == store.TText && op == "+" {
		return store.NewText(l.S + r.S), nil
	}
	numeric := func(v store.Value) (float64, bool, error) {
		switch v.T {
		case store.TInt:
			return float64(v.I), true, nil
		case store.TFloat:
			return v.F, false, nil
		}
		return 0, false, fmt.Errorf("postquel: %v is not numeric", v.T)
	}
	lf, lInt, err := numeric(l)
	if err != nil {
		return store.Null, err
	}
	rf, rInt, err := numeric(r)
	if err != nil {
		return store.Null, err
	}
	if lInt && rInt && op != "/" {
		switch op {
		case "+":
			return store.NewInt(l.I + r.I), nil
		case "-":
			return store.NewInt(l.I - r.I), nil
		case "*":
			return store.NewInt(l.I * r.I), nil
		}
	}
	switch op {
	case "+":
		return store.NewFloat(lf + rf), nil
	case "-":
		return store.NewFloat(lf - rf), nil
	case "*":
		return store.NewFloat(lf * rf), nil
	case "/":
		if rf == 0 {
			return store.Null, fmt.Errorf("postquel: division by zero")
		}
		return store.NewFloat(lf / rf), nil
	}
	return store.Null, fmt.Errorf("postquel: unknown arithmetic %q", op)
}

func (c *evalCtx) evalCall(n *callExpr) (store.Value, error) {
	args := make([]store.Value, len(n.args))
	for i, a := range n.args {
		v, err := c.eval(a)
		if err != nil {
			return store.Null, err
		}
		args[i] = v
	}
	switch strings.ToLower(n.name) {
	case "date":
		if len(args) != 1 || args[0].T != store.TText {
			return store.Null, fmt.Errorf("postquel: date() takes one string")
		}
		return args[0].CoerceTo(store.TDate)
	case "now":
		if c.eng.clock == nil {
			return store.Null, fmt.Errorf("postquel: now() needs a clock")
		}
		return store.NewDate(c.eng.cal.Chron().CivilOf(c.eng.clock.Now())), nil
	case "year", "month", "day", "weekday":
		if len(args) != 1 || args[0].T != store.TDate {
			return store.Null, fmt.Errorf("postquel: %s() takes one date", n.name)
		}
		d := args[0].D
		switch strings.ToLower(n.name) {
		case "year":
			return store.NewInt(int64(d.Year)), nil
		case "month":
			return store.NewInt(int64(d.Month)), nil
		case "day":
			return store.NewInt(int64(d.Day)), nil
		default:
			return store.NewInt(int64(d.Weekday())), nil
		}
	case "daytick":
		if len(args) != 1 || args[0].T != store.TDate {
			return store.Null, fmt.Errorf("postquel: daytick() takes one date")
		}
		return store.NewInt(c.eng.cal.Chron().DayTick(args[0].D)), nil
	}
	// User-defined functions registered with the store.
	return c.eng.db.CallFunc(n.name, args)
}

// evalCalMember tests a date (or day tick) against a calendar expression,
// evaluating the calendar once per statement.
func (c *evalCtx) evalCalMember(n *calMemberExpr) (store.Value, error) {
	v, err := c.eval(n.arg)
	if err != nil {
		return store.Null, err
	}
	cal, err := c.calendarFor(n.src)
	if err != nil {
		return store.Null, err
	}
	ch := c.eng.cal.Chron()
	var tick chronology.Tick
	switch v.T {
	case store.TDate:
		tick = ch.TickAt(cal.Granularity(), ch.EpochSecondsOf(v.D))
	case store.TInt:
		tick = v.I
	case store.TNull:
		return store.NewBool(false), nil
	default:
		return store.Null, fmt.Errorf("postquel: incal argument must be a date or tick, got %v", v.T)
	}
	return store.NewBool(cal.Contains(tick)), nil
}

// calendarFor evaluates a calendar expression over the statement's window,
// caching by source.
func (c *evalCtx) calendarFor(src string) (*calendar.Calendar, error) {
	if cal, ok := c.calCache[src]; ok {
		return cal, nil
	}
	if !c.hasWindow {
		return nil, fmt.Errorf("postquel: no rows with dates to bound calendar %q", src)
	}
	cal, err := c.eng.cal.EvalExpr(src, c.calFrom, c.calTo)
	if err != nil {
		return nil, err
	}
	flat := cal.Flatten()
	if c.calCache == nil {
		c.calCache = map[string]*calendar.Calendar{}
	}
	c.calCache[src] = flat
	return flat, nil
}

// computeWindow derives the statement's calendar-evaluation window from the
// date columns of the table's live rows.
func (c *evalCtx) computeWindow() {
	if c.table == nil {
		return
	}
	var dateCols []int
	for i, col := range c.table.Schema.Cols {
		if col.Type == store.TDate {
			dateCols = append(dateCols, i)
		}
	}
	if len(dateCols) == 0 {
		return
	}
	first := true
	c.table.Scan(func(_ int64, row store.Row) bool {
		for _, i := range dateCols {
			if row[i].T != store.TDate {
				continue
			}
			d := row[i].D
			if first {
				c.calFrom, c.calTo, first = d, d, false
				continue
			}
			if d.Before(c.calFrom) {
				c.calFrom = d
			}
			if c.calTo.Before(d) {
				c.calTo = d
			}
		}
		return true
	})
	c.hasWindow = !first
}
