package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"

	"calsys"
	"calsys/internal/chronology"
	"calsys/internal/core/callang"
	"calsys/internal/core/plan"
)

// twin is the library-side copy of one tenant: the same catalog and rules in
// a calsys.System of its own, evaluated directly. It is the oracle the HTTP
// responses are checked against.
type twin struct {
	sys   *calsys.System
	rules map[string]string // rule name -> expression
}

func newTwin(i int) (*twin, error) {
	today, err := chronology.ParseCivil(todayStr)
	if err != nil {
		return nil, err
	}
	clock := calsys.NewVirtualClock(0)
	sys, err := calsys.Open(calsys.WithClock(clock), calsys.WithCatalogScope(fmt.Sprintf("oracle/%d", i)))
	if err != nil {
		return nil, err
	}
	clock.Set(sys.SecondsOf(today))
	return &twin{sys: sys, rules: map[string]string{}}, nil
}

// source resolves the expression an operation evaluates.
func (tw *twin) source(o *op) (string, error) {
	switch {
	case o.kind == opNext && o.name != "":
		src, ok := tw.rules[o.name]
		if !ok {
			return "", fmt.Errorf("no rule %q", o.name)
		}
		return src, nil
	case o.rec != nil:
		return o.rec.Compile(tw.sys.Chron())
	}
	return o.expr, nil
}

// apply performs a write on the twin through the library.
func (tw *twin) apply(o *op) error {
	switch o.kind {
	case opPutDays:
		cal, err := pointCalendar(tw.sys, o.days)
		if err != nil {
			return err
		}
		if _, ok := tw.sys.CalendarEntryOf(o.name); ok {
			return tw.sys.ReplaceStoredCalendar(o.name, cal)
		}
		return tw.sys.DefineStoredCalendar(o.name, cal)
	case opPutDerived:
		return tw.sys.DefineCalendar(o.name, o.expr, calsys.GranAuto)
	case opDelCal:
		return tw.sys.DropCalendar(o.name)
	case opPutRule:
		src, err := tw.source(o)
		if err != nil {
			return err
		}
		tw.rules[o.name] = src
		return nil
	case opDelRule:
		delete(tw.rules, o.name)
		return nil
	}
	return fmt.Errorf("operation kind %d is not a write", o.kind)
}

// pointCalendar builds a stored DAYS calendar from ISO dates.
func pointCalendar(sys *calsys.System, days []string) (*calsys.Calendar, error) {
	ticks := make([]calsys.Tick, 0, len(days))
	for _, d := range days {
		c, err := chronology.ParseCivil(d)
		if err != nil {
			return nil, err
		}
		ticks = append(ticks, sys.DayTickOf(c))
	}
	return calsys.PointCalendar(calsys.Day, ticks...)
}

// intervalJSON is one interval of an expand response.
type intervalJSON struct {
	Start string `json:"start"`
	End   string `json:"end"`
}

// expectation is what the oracle says a response must contain.
type expectation struct {
	count       int
	first, last intervalJSON
	next        string
	dormant     bool
	name        string
}

// clippedIntervals renders a flattened calendar's intervals as civil dates
// clipped to [from, to], the way the expand route reports them.
func clippedIntervals(sys *calsys.System, flat *calsys.Calendar, from, to calsys.Civil) []intervalJSON {
	ch, g := sys.Chron(), flat.Granularity()
	ivs := flat.Intervals()
	out := make([]intervalJSON, 0, len(ivs))
	for _, iv := range ivs {
		start := ch.CivilOf(ch.UnitStart(g, iv.Lo))
		end := ch.CivilOf(ch.UnitEndExcl(g, iv.Hi) - 1)
		if end.Before(from) || to.Before(start) {
			continue
		}
		if start.Before(from) {
			start = from
		}
		if to.Before(end) {
			end = to
		}
		out = append(out, intervalJSON{Start: start.String(), End: end.String()})
	}
	return out
}

// expect evaluates a read through the library.
func (tw *twin) expect(o *op) (expectation, error) {
	var want expectation
	switch o.kind {
	case opExpand:
		src, err := tw.source(o)
		if err != nil {
			return want, err
		}
		from, err := chronology.ParseCivil(o.from)
		if err != nil {
			return want, err
		}
		to, err := chronology.ParseCivil(o.to)
		if err != nil {
			return want, err
		}
		cal, err := tw.sys.EvalCalendar(src, from, to)
		if err != nil {
			return want, err
		}
		ivs := clippedIntervals(tw.sys, cal.Flatten(), from, to)
		if len(ivs) == 0 {
			return want, fmt.Errorf("empty expansion of %q over %s..%s", src, o.from, o.to)
		}
		want.count, want.first, want.last = len(ivs), ivs[0], ivs[len(ivs)-1]
	case opNext:
		src, err := tw.source(o)
		if err != nil {
			return want, err
		}
		after := tw.sys.Now()
		if o.from != "" {
			c, err := chronology.ParseCivil(o.from)
			if err != nil {
				return want, err
			}
			after = tw.sys.SecondsOf(c)
		}
		e, err := callang.ParseExpr(src)
		if err != nil {
			return want, err
		}
		env := tw.sys.Rules().Cal().Env()
		env.Now = tw.sys.Clock().Now
		prepped, gran, err := plan.Prepare(env, e, nil)
		if err != nil {
			return want, err
		}
		at, ok, err := plan.NewScheduler(env, prepped, gran).NextAfter(after)
		if err != nil {
			return want, err
		}
		if ok {
			want.next = tw.sys.Chron().CivilOf(at).String()
		}
		want.dormant = !ok
	case opGetCal:
		if _, ok := tw.sys.CalendarEntryOf(o.name); !ok {
			return want, fmt.Errorf("no calendar %q", o.name)
		}
		want.name = o.name
	}
	return want, nil
}

var hashSeed = maphash.MakeSeed()

// check verifies one response. The first response for an entry is decoded
// and compared with the oracle; every later one must repeat its bytes.
func (e *entry) check(status int, body []byte) error {
	if status != e.op.status {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", e.method, e.path, status, e.op.status, body)
	}
	sum := maphash.Bytes(hashSeed, body)
	if e.seen {
		if sum != e.sum || len(body) != e.size {
			return fmt.Errorf("%s %s %s: response differs from the first one seen for the same key", e.method, e.path, e.body)
		}
		return nil
	}
	if err := e.want.matches(e.op.kind, body); err != nil {
		return fmt.Errorf("%s %s %s: %w", e.method, e.path, e.body, err)
	}
	e.seen, e.sum, e.size = true, sum, len(body)
	return nil
}

// matches decodes a response body and compares it with the expectation.
func (want *expectation) matches(kind opKind, body []byte) error {
	switch kind {
	case opExpand:
		var got struct {
			Count     int            `json:"count"`
			Intervals []intervalJSON `json:"intervals"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Count != want.count || len(got.Intervals) != want.count {
			return fmt.Errorf("count %d (%d intervals), oracle says %d", got.Count, len(got.Intervals), want.count)
		}
		if got.Intervals[0] != want.first || got.Intervals[want.count-1] != want.last {
			return fmt.Errorf("first/last %v..%v, oracle says %v..%v",
				got.Intervals[0], got.Intervals[want.count-1], want.first, want.last)
		}
	case opNext:
		var got struct {
			Next    string `json:"next"`
			Dormant bool   `json:"dormant"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Next != want.next || got.Dormant != want.dormant {
			return fmt.Errorf("next %q dormant %t, oracle says %q %t", got.Next, got.Dormant, want.next, want.dormant)
		}
	case opGetCal:
		var got struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Name != want.name {
			return fmt.Errorf("calendar %q, want %q", got.Name, want.name)
		}
	default:
		// Writes are checked by status; their bodies must still repeat.
		if len(body) > 0 && !json.Valid(bytes.TrimSpace(body)) {
			return fmt.Errorf("body is not JSON: %.100s", body)
		}
	}
	return nil
}
