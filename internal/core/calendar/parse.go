package calendar

import (
	"fmt"
	"strconv"
	"strings"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

// Parse reads a calendar from the paper's brace notation produced by
// String: "{(1,31),(32,59)}" for order 1, "{{(4,10)},{(32,38)}}" for higher
// orders. It is the inverse of String and is used by the store's snapshot
// format.
func Parse(gran chronology.Granularity, s string) (*Calendar, error) {
	p := &calParser{src: s}
	c, err := p.parse(gran)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.i != len(p.src) {
		return nil, fmt.Errorf("calendar: trailing input %q", p.src[p.i:])
	}
	return c, nil
}

type calParser struct {
	src string
	i   int
}

func (p *calParser) skipSpace() {
	for p.i < len(p.src) && (p.src[p.i] == ' ' || p.src[p.i] == '\t' || p.src[p.i] == '\n') {
		p.i++
	}
}

func (p *calParser) peek() byte {
	if p.i >= len(p.src) {
		return 0
	}
	return p.src[p.i]
}

func (p *calParser) expect(b byte) error {
	p.skipSpace()
	if p.peek() != b {
		return fmt.Errorf("calendar: expected %q at offset %d of %q", string(b), p.i, p.src)
	}
	p.i++
	return nil
}

func (p *calParser) parse(gran chronology.Granularity) (*Calendar, error) {
	if err := p.expect('{'); err != nil {
		return nil, err
	}
	p.skipSpace()
	switch p.peek() {
	case '}':
		p.i++
		return Empty(gran), nil
	case '{':
		var subs []*Calendar
		for {
			sub, err := p.parse(gran)
			if err != nil {
				return nil, err
			}
			subs = append(subs, sub)
			p.skipSpace()
			if p.peek() == ',' {
				p.i++
				continue
			}
			break
		}
		if err := p.expect('}'); err != nil {
			return nil, err
		}
		return FromSubs(subs)
	case '(':
		var ivs []interval.Interval
		for {
			iv, err := p.parseInterval()
			if err != nil {
				return nil, err
			}
			ivs = append(ivs, iv)
			p.skipSpace()
			if p.peek() == ',' {
				p.i++
				continue
			}
			break
		}
		if err := p.expect('}'); err != nil {
			return nil, err
		}
		// Not FromIntervals: its order check is for caller input, and String
		// prints leaves in whatever order a selection or a grouping left them.
		return newLeaf(gran, ivs, false), nil
	}
	return nil, fmt.Errorf("calendar: expected '(' or '{' at offset %d of %q", p.i, p.src)
}

func (p *calParser) parseInterval() (interval.Interval, error) {
	if err := p.expect('('); err != nil {
		return interval.Interval{}, err
	}
	lo, err := p.parseInt()
	if err != nil {
		return interval.Interval{}, err
	}
	if err := p.expect(','); err != nil {
		return interval.Interval{}, err
	}
	hi, err := p.parseInt()
	if err != nil {
		return interval.Interval{}, err
	}
	if err := p.expect(')'); err != nil {
		return interval.Interval{}, err
	}
	return interval.New(lo, hi)
}

func (p *calParser) parseInt() (int64, error) {
	p.skipSpace()
	j := p.i
	if j < len(p.src) && (p.src[j] == '-' || p.src[j] == '+') {
		j++
	}
	for j < len(p.src) && p.src[j] >= '0' && p.src[j] <= '9' {
		j++
	}
	if j == p.i {
		return 0, fmt.Errorf("calendar: expected integer at offset %d of %q", p.i, p.src)
	}
	v, err := strconv.ParseInt(strings.TrimPrefix(p.src[p.i:j], "+"), 10, 64)
	if err != nil {
		return 0, err
	}
	p.i = j
	return v, nil
}
