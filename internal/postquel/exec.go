package postquel

import (
	"fmt"
	"sort"
	"strings"

	"calsys/internal/caldb"
	"calsys/internal/chronology"
	"calsys/internal/core/calendar"
	"calsys/internal/rules"
	"calsys/internal/store"
)

// Engine executes Postquel statements against the store, the calendar
// catalog and the rule system.
type Engine struct {
	db    *store.DB
	cal   *caldb.Manager
	rules *rules.Engine
	clock rules.Clock
}

// NewEngine wires a query engine to its substrates. clock may be nil, in
// which case now() and temporal-rule definition are refused.
func NewEngine(cal *caldb.Manager, re *rules.Engine, clock rules.Clock) *Engine {
	return &Engine{db: cal.DB(), cal: cal, rules: re, clock: clock}
}

// Result is the outcome of one statement.
type Result struct {
	Cols []string
	Rows [][]store.Value
	Msg  string
}

// String renders a result as an aligned text table (or its message).
func (r Result) String() string {
	if len(r.Cols) == 0 {
		return r.Msg
	}
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Cols {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i, w := range widths {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	for _, row := range cells {
		b.WriteByte('\n')
		for i, s := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
	}
	return b.String()
}

// isDML reports whether a statement reads or writes tuples (and therefore
// runs inside a transaction); DDL and definition statements manage their own
// transactions.
func isDML(s stmt) bool {
	switch s.(type) {
	case *appendStmt, *retrieveStmt, *replaceStmt, *deleteStmt:
		return true
	}
	return false
}

// Exec parses and executes a batch of statements. Each DML statement runs in
// its own transaction; definition and DDL statements manage their own.
func (e *Engine) Exec(src string) ([]Result, error) {
	stmts, err := parse(src)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(stmts))
	for _, s := range stmts {
		var res Result
		if isDML(s) {
			err = e.db.RunTxn(func(tx *store.Txn) error {
				var err error
				res, err = e.execStmt(tx, s, nil)
				return err
			})
		} else {
			res, err = e.execStmt(nil, s, nil)
		}
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// ExecOne is Exec for a single statement.
func (e *Engine) ExecOne(src string) (Result, error) {
	rs, err := e.Exec(src)
	if err != nil {
		return Result{}, err
	}
	return rs[len(rs)-1], nil
}

func (e *Engine) execStmt(tx *store.Txn, s stmt, binds map[string]boundTuple) (Result, error) {
	switch n := s.(type) {
	case *createTableStmt:
		if tx != nil {
			return Result{}, fmt.Errorf("postquel: create is not allowed inside a rule action")
		}
		schema, err := store.NewSchema(n.cols...)
		if err != nil {
			return Result{}, err
		}
		if err := e.db.CreateTable(n.table, schema); err != nil {
			return Result{}, err
		}
		return Result{Msg: fmt.Sprintf("created table %s", n.table)}, nil
	case *createIndexStmt:
		if tx != nil {
			return Result{}, fmt.Errorf("postquel: create is not allowed inside a rule action")
		}
		if err := e.db.CreateIndex(n.table, n.col); err != nil {
			return Result{}, err
		}
		return Result{Msg: fmt.Sprintf("created index on %s(%s)", n.table, n.col)}, nil
	case *appendStmt:
		return e.execAppend(tx, n, binds)
	case *retrieveStmt:
		return e.execRetrieve(tx, n, binds)
	case *replaceStmt:
		return e.execReplace(tx, n, binds)
	case *deleteStmt:
		return e.execDelete(tx, n, binds)
	case *defineCalendarStmt:
		if tx != nil {
			return Result{}, fmt.Errorf("postquel: define is not allowed inside a rule action")
		}
		return e.execDefineCalendar(n)
	case *defineRuleStmt:
		if tx != nil {
			return Result{}, fmt.Errorf("postquel: define is not allowed inside a rule action")
		}
		return e.execDefineRule(n)
	case *dropStmt:
		if tx != nil {
			return Result{}, fmt.Errorf("postquel: drop is not allowed inside a rule action")
		}
		return e.execDrop(n)
	case *showStmt:
		return e.execShow(n)
	}
	return Result{}, fmt.Errorf("postquel: unhandled statement %T", s)
}

func (e *Engine) execAppend(tx *store.Txn, n *appendStmt, binds map[string]boundTuple) (Result, error) {
	tab, ok := e.db.Table(n.table)
	if !ok {
		return Result{}, fmt.Errorf("postquel: no table %q", n.table)
	}
	ctx := &evalCtx{eng: e, binds: binds}
	row := make(store.Row, len(tab.Schema.Cols))
	for i := range row {
		row[i] = store.Null
	}
	for _, a := range n.assigns {
		i := tab.Schema.ColIndex(a.col)
		if i < 0 {
			return Result{}, fmt.Errorf("postquel: table %s has no column %q", n.table, a.col)
		}
		v, err := ctx.eval(a.x)
		if err != nil {
			return Result{}, err
		}
		row[i] = v
	}
	if _, err := tx.Append(tab.Name, row); err != nil {
		return Result{}, err
	}
	return Result{Msg: "appended 1 tuple"}, nil
}

// validateCols statically checks every column reference in an expression
// against the statement's table, so misspelled columns fail even on empty
// tables. NEW and CURRENT resolve at run time.
func validateCols(tab *store.Table, x expr) error {
	if x == nil {
		return nil
	}
	switch n := x.(type) {
	case *litExpr:
		return nil
	case *colExpr:
		if n.qual == "" || strings.EqualFold(n.qual, tab.Name) {
			if tab.Schema.ColIndex(n.name) < 0 {
				return fmt.Errorf("postquel: table %s has no column %q", tab.Name, n.name)
			}
			return nil
		}
		if strings.EqualFold(n.qual, "NEW") || strings.EqualFold(n.qual, "CURRENT") {
			return nil
		}
		return fmt.Errorf("postquel: unknown tuple variable %q", n.qual)
	case *binExpr:
		if err := validateCols(tab, n.l); err != nil {
			return err
		}
		return validateCols(tab, n.r)
	case *notExpr:
		return validateCols(tab, n.x)
	case *callExpr:
		for _, a := range n.args {
			if err := validateCols(tab, a); err != nil {
				return err
			}
		}
		return nil
	case *calMemberExpr:
		return validateCols(tab, n.arg)
	}
	return nil
}

func (e *Engine) execRetrieve(tx *store.Txn, n *retrieveStmt, binds map[string]boundTuple) (Result, error) {
	tab, ok := e.db.Table(n.table)
	if !ok {
		return Result{}, fmt.Errorf("postquel: no table %q", n.table)
	}
	for _, t := range n.targets {
		if err := validateCols(tab, t.x); err != nil {
			return Result{}, err
		}
	}
	if err := validateCols(tab, n.where); err != nil {
		return Result{}, err
	}
	ctx := &evalCtx{eng: e, table: tab, binds: binds}
	ctx.computeWindow()

	// The on-clause calendar filter (the paper's "Retrieve (stock.price) on
	// expiration-date").
	var onCal *calendar.Calendar
	onCol := -1
	if n.onCal != "" {
		var err error
		onCal, err = ctx.calendarFor(n.onCal)
		if err != nil {
			return Result{}, err
		}
		if n.onCol != "" {
			onCol = tab.Schema.ColIndex(n.onCol)
			if onCol < 0 {
				return Result{}, fmt.Errorf("postquel: table %s has no column %q", n.table, n.onCol)
			}
		} else {
			for i, col := range tab.Schema.Cols {
				if col.Type == store.TDate {
					onCol = i
					break
				}
			}
			if onCol < 0 {
				return Result{}, fmt.Errorf("postquel: table %s has no date column for the on clause", n.table)
			}
		}
	}

	aggMode := false
	for _, t := range n.targets {
		if t.agg != "" {
			aggMode = true
		}
	}
	if aggMode {
		for _, t := range n.targets {
			if t.agg == "" {
				return Result{}, fmt.Errorf("postquel: mixing aggregates and plain targets is not supported")
			}
		}
	}

	res := Result{}
	for _, t := range n.targets {
		res.Cols = append(res.Cols, t.name)
	}
	aggs := make([]*aggState, len(n.targets))
	for i := range aggs {
		aggs[i] = &aggState{}
	}

	ch := e.cal.Chron()
	var rowErr error
	err := tx.Retrieve(tab.Name, nil, func(_ int64, row store.Row) bool {
		ctx.row = row
		if onCal != nil {
			v := row[onCol]
			if v.T != store.TDate {
				return true
			}
			tick := ch.TickAt(onCal.Granularity(), ch.EpochSecondsOf(v.D))
			if !onCal.Contains(tick) {
				return true
			}
		}
		if n.where != nil {
			keep, err := ctx.evalBool(n.where)
			if err != nil {
				rowErr = err
				return false
			}
			if !keep {
				return true
			}
		}
		if aggMode {
			for i, t := range n.targets {
				v, err := ctx.eval(t.x)
				if err != nil {
					rowErr = err
					return false
				}
				if err := aggs[i].add(t.agg, v); err != nil {
					rowErr = err
					return false
				}
			}
			return true
		}
		outRow := make([]store.Value, len(n.targets))
		for i, t := range n.targets {
			v, err := ctx.eval(t.x)
			if err != nil {
				rowErr = err
				return false
			}
			outRow[i] = v
		}
		res.Rows = append(res.Rows, outRow)
		return true
	})
	if err != nil {
		return Result{}, err
	}
	if rowErr != nil {
		return Result{}, rowErr
	}
	if aggMode {
		outRow := make([]store.Value, len(n.targets))
		for i, t := range n.targets {
			outRow[i] = aggs[i].result(t.agg)
		}
		res.Rows = append(res.Rows, outRow)
	}
	return res, nil
}

// aggState accumulates one aggregate target.
type aggState struct {
	count int64
	sum   float64
	min   store.Value
	max   store.Value
	any   bool
}

func (a *aggState) add(agg string, v store.Value) error {
	if v.IsNull() {
		return nil
	}
	a.count++
	switch agg {
	case "sum", "avg":
		switch v.T {
		case store.TInt:
			a.sum += float64(v.I)
		case store.TFloat:
			a.sum += v.F
		default:
			return fmt.Errorf("postquel: %s over non-numeric %v", agg, v.T)
		}
	case "min", "max":
		if !a.any {
			a.min, a.max = v, v
			a.any = true
			return nil
		}
		if c, err := store.Compare(v, a.min); err != nil {
			return err
		} else if c < 0 {
			a.min = v
		}
		if c, err := store.Compare(v, a.max); err != nil {
			return err
		} else if c > 0 {
			a.max = v
		}
	}
	a.any = true
	return nil
}

func (a *aggState) result(agg string) store.Value {
	switch agg {
	case "count":
		return store.NewInt(a.count)
	case "sum":
		return store.NewFloat(a.sum)
	case "avg":
		if a.count == 0 {
			return store.Null
		}
		return store.NewFloat(a.sum / float64(a.count))
	case "min":
		if !a.any {
			return store.Null
		}
		return a.min
	case "max":
		if !a.any {
			return store.Null
		}
		return a.max
	}
	return store.Null
}

func (e *Engine) execReplace(tx *store.Txn, n *replaceStmt, binds map[string]boundTuple) (Result, error) {
	tab, ok := e.db.Table(n.table)
	if !ok {
		return Result{}, fmt.Errorf("postquel: no table %q", n.table)
	}
	ctx := &evalCtx{eng: e, table: tab, binds: binds}
	ctx.computeWindow()
	rids, err := e.matchRids(ctx, tab, n.where)
	if err != nil {
		return Result{}, err
	}
	for _, rid := range rids {
		row, ok := tab.Get(rid)
		if !ok {
			continue
		}
		newRow := row.Clone()
		ctx.row = row
		for _, a := range n.assigns {
			i := tab.Schema.ColIndex(a.col)
			if i < 0 {
				return Result{}, fmt.Errorf("postquel: table %s has no column %q", n.table, a.col)
			}
			v, err := ctx.eval(a.x)
			if err != nil {
				return Result{}, err
			}
			newRow[i] = v
		}
		if err := tx.Replace(tab.Name, rid, newRow); err != nil {
			return Result{}, err
		}
	}
	return Result{Msg: fmt.Sprintf("replaced %d tuples", len(rids))}, nil
}

func (e *Engine) execDelete(tx *store.Txn, n *deleteStmt, binds map[string]boundTuple) (Result, error) {
	tab, ok := e.db.Table(n.table)
	if !ok {
		return Result{}, fmt.Errorf("postquel: no table %q", n.table)
	}
	ctx := &evalCtx{eng: e, table: tab, binds: binds}
	ctx.computeWindow()
	rids, err := e.matchRids(ctx, tab, n.where)
	if err != nil {
		return Result{}, err
	}
	for _, rid := range rids {
		if err := tx.Delete(tab.Name, rid); err != nil {
			return Result{}, err
		}
	}
	return Result{Msg: fmt.Sprintf("deleted %d tuples", len(rids))}, nil
}

func (e *Engine) matchRids(ctx *evalCtx, tab *store.Table, where expr) ([]int64, error) {
	var rids []int64
	var rowErr error
	tab.Scan(func(rid int64, row store.Row) bool {
		if where != nil {
			ctx.row = row
			keep, err := ctx.evalBool(where)
			if err != nil {
				rowErr = err
				return false
			}
			if !keep {
				return true
			}
		}
		rids = append(rids, rid)
		return true
	})
	return rids, rowErr
}

func (e *Engine) execDefineCalendar(n *defineCalendarStmt) (Result, error) {
	ls := caldb.Lifespan{Lo: 1, Hi: caldb.MaxDayTick}
	gran := caldb.GranAuto
	if n.gran != "" {
		g, err := chronology.ParseGranularity(n.gran)
		if err != nil {
			return Result{}, err
		}
		gran = g
	}
	if n.stored {
		g := chronology.Day
		if gran != caldb.GranAuto {
			g = gran
		}
		cal, err := calendar.FromPoints(g, n.points)
		if err != nil {
			return Result{}, err
		}
		if err := e.cal.DefineStored(n.name, cal, ls); err != nil {
			return Result{}, err
		}
		return Result{Msg: fmt.Sprintf("defined stored calendar %s", n.name)}, nil
	}
	if err := e.cal.DefineDerived(n.name, n.script, ls, gran); err != nil {
		return Result{}, err
	}
	return Result{Msg: fmt.Sprintf("defined calendar %s", n.name)}, nil
}

func (e *Engine) execDefineRule(n *defineRuleStmt) (Result, error) {
	if e.rules == nil {
		return Result{}, fmt.Errorf("postquel: no rule engine attached")
	}
	action := &postquelAction{eng: e, stmts: n.actions, desc: describeActions(n.actions)}
	if n.temporal {
		if e.clock == nil {
			return Result{}, fmt.Errorf("postquel: temporal rules need a clock")
		}
		now := e.clock.Now()
		if err := e.rules.DefineTemporalRule(n.name, n.calExpr, action, now); err != nil {
			return Result{}, err
		}
		return Result{Msg: fmt.Sprintf("defined temporal rule %s", n.name)}, nil
	}
	op, err := store.ParseEventOp(n.event)
	if err != nil {
		return Result{}, err
	}
	var cond rules.Condition
	if n.where != nil {
		whereExpr := n.where
		table := n.table
		cond = func(tx *store.Txn, ev store.Event) (bool, error) {
			ctx, err := e.ruleCtx(table, ev, nil)
			if err != nil {
				return false, err
			}
			return ctx.evalBool(whereExpr)
		}
	}
	if err := e.rules.DefineEventRule(n.name, op, n.table, cond, action); err != nil {
		return Result{}, err
	}
	return Result{Msg: fmt.Sprintf("defined rule %s", n.name)}, nil
}

// ruleCtx builds an evaluation context with NEW and CURRENT bound from an
// event.
func (e *Engine) ruleCtx(table string, ev store.Event, tx *store.Txn) (*evalCtx, error) {
	tab, ok := e.db.Table(table)
	if !ok {
		return nil, fmt.Errorf("postquel: rule table %q missing", table)
	}
	binds := map[string]boundTuple{
		"NEW":     {schema: tab.Schema, row: ev.New},
		"CURRENT": {schema: tab.Schema, row: ev.Old},
	}
	ctx := &evalCtx{eng: e, table: tab, binds: binds}
	ctx.computeWindow()
	return ctx, nil
}

func describeActions(stmts []stmt) string {
	kinds := make([]string, len(stmts))
	for i, s := range stmts {
		switch s.(type) {
		case *appendStmt:
			kinds[i] = "append"
		case *replaceStmt:
			kinds[i] = "replace"
		case *deleteStmt:
			kinds[i] = "delete"
		case *retrieveStmt:
			kinds[i] = "retrieve"
		default:
			kinds[i] = "stmt"
		}
	}
	return "do(" + strings.Join(kinds, ",") + ")"
}

// postquelAction runs query-language commands as a rule action, with NEW and
// CURRENT bound for event rules.
type postquelAction struct {
	eng   *Engine
	stmts []stmt
	desc  string
}

// Execute implements rules.Action.
func (a *postquelAction) Execute(tx *store.Txn, ev *store.Event, firedAt int64) error {
	var binds map[string]boundTuple
	if ev != nil {
		tab, ok := a.eng.db.Table(ev.Table)
		if !ok {
			return fmt.Errorf("postquel: event table %q missing", ev.Table)
		}
		binds = map[string]boundTuple{
			"NEW":     {schema: tab.Schema, row: ev.New},
			"CURRENT": {schema: tab.Schema, row: ev.Old},
		}
	}
	for _, s := range a.stmts {
		if _, err := a.eng.execStmt(tx, s, binds); err != nil {
			return err
		}
	}
	return nil
}

// Describe implements rules.Action.
func (a *postquelAction) Describe() string { return a.desc }

func (e *Engine) execDrop(n *dropStmt) (Result, error) {
	switch n.kind {
	case "calendar":
		if err := e.cal.Drop(n.name); err != nil {
			return Result{}, err
		}
	case "rule":
		if e.rules == nil {
			return Result{}, fmt.Errorf("postquel: no rule engine attached")
		}
		if err := e.rules.DropRule(n.name); err != nil {
			return Result{}, err
		}
	case "table":
		if err := e.db.DropTable(n.name); err != nil {
			return Result{}, err
		}
	}
	return Result{Msg: fmt.Sprintf("dropped %s %s", n.kind, n.name)}, nil
}

func (e *Engine) execShow(n *showStmt) (Result, error) {
	switch n.kind {
	case "tables":
		res := Result{Cols: []string{"table"}}
		for _, name := range e.db.TableNames() {
			res.Rows = append(res.Rows, []store.Value{store.NewText(name)})
		}
		return res, nil
	case "calendars":
		res := Result{Cols: []string{"calendar"}}
		names := e.cal.Names()
		sort.Strings(names)
		for _, name := range names {
			res.Rows = append(res.Rows, []store.Value{store.NewText(name)})
		}
		return res, nil
	case "rules":
		if e.rules == nil {
			return Result{}, fmt.Errorf("postquel: no rule engine attached")
		}
		res := Result{Cols: []string{"rule"}}
		names := e.rules.RuleNames()
		sort.Strings(names)
		for _, name := range names {
			res.Rows = append(res.Rows, []store.Value{store.NewText(name)})
		}
		return res, nil
	case "calendar":
		row, err := e.cal.FigureRow(n.name)
		if err != nil {
			return Result{}, err
		}
		return Result{Msg: row}, nil
	case "rule":
		if e.rules == nil {
			return Result{}, fmt.Errorf("postquel: no rule engine attached")
		}
		row, err := e.rules.RuleInfoRow(n.name)
		if err != nil {
			return Result{}, err
		}
		return Result{Msg: row}, nil
	}
	return Result{}, fmt.Errorf("postquel: unknown show %q", n.kind)
}
