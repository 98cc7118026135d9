package callang

import (
	"fmt"

	"calsys/internal/core/calendar"
	"calsys/internal/core/interval"
)

// Parser builds ASTs for calendar expressions and scripts.
//
// Grammar (selection binds loosely, foreach chains are right-associative):
//
//	script  = '{' stmt* '}' | stmt*
//	stmt    = ';'
//	        | 'return' '(' expr ')' ';'
//	        | 'if' '(' expr ')' action ['else' action]
//	        | 'while' '(' expr ')' action
//	        | IDENT '=' expr ';'
//	        | expr ';'
//	action  = stmt | '{' stmt* '}'
//	expr    = chain (('+'|'-') chain)*
//	chain   = '[' selpred ']' '/' chain
//	        | INT '/' chain
//	        | primary [(':' op ':' | '.' op '.') chain]
//	op      = 'overlaps' | 'during' | 'meets' | '<' | '<=' | 'intersects'
//	primary = IDENT ['(' expr (',' expr)* ')'] | '(' expr ')' | INT | STRING
//	selpred = selitem (',' selitem)*
//	selitem = 'n' | ['-'] INT ['-' ['-'] INT]
type Parser struct {
	toks []Token
	i    int
}

// NewParser tokenizes src and prepares a parser, reporting lexical errors.
func NewParser(src string) (*Parser, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// ParseExpr parses src as a single calendar expression.
func ParseExpr(src string) (Expr, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != EOF {
		return nil, p.errf("unexpected %s after expression", p.cur())
	}
	return e, nil
}

// ParseDerivation parses a derivation script, also accepting a bare
// calendar expression without a trailing semicolon ("[2]/DAYS:during:WEEKS"
// is a valid derivation on its own).
func ParseDerivation(src string) (*Script, error) {
	s, serr := ParseScript(src)
	if serr == nil {
		return s, nil
	}
	e, eerr := ParseExpr(src)
	if eerr != nil {
		return nil, serr
	}
	return ExprScript(e), nil
}

// ParseScript parses src as a calendar script (the derivation-script of a
// calendar or the body of a temporal rule).
func ParseScript(src string) (*Script, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	braced := false
	if p.cur().Kind == LBRACE {
		p.next()
		braced = true
	}
	var stmts []Stmt
	for p.cur().Kind != EOF && p.cur().Kind != RBRACE {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			stmts = append(stmts, s)
		}
	}
	if braced {
		if p.cur().Kind != RBRACE {
			return nil, p.errf("expected '}' to close script, got %s", p.cur())
		}
		p.next()
	}
	if p.cur().Kind != EOF {
		return nil, p.errf("unexpected %s after script", p.cur())
	}
	if len(stmts) == 0 {
		return nil, p.errf("empty script")
	}
	return &Script{Stmts: stmts, expr: substitute(stmts)}, nil
}

func (p *Parser) cur() Token { return p.toks[p.i] }

func (p *Parser) peek() Token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) next() Token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, p.errf("expected %s, got %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("callang: %v: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

// --- statements -------------------------------------------------------

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case SEMI:
		p.next()
		return nil, nil
	case KWRETURN:
		pos := p.next().Pos
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &ReturnStmt{X: x, Pos: pos}, nil
	case KWIF:
		return p.parseIf()
	case KWWHILE:
		return p.parseWhile()
	case IDENT:
		if p.peek().Kind == ASSIGN {
			if IsToday(p.cur().Text) {
				// The compiler resolves today before temporaries: the
				// assignment could never be read.
				return nil, p.errf("cannot assign to %s: reserved name", p.cur().Text)
			}
			tok := p.next()
			p.next() // '='
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
			return &AssignStmt{Name: tok.Text, X: x, Pos: tok.Pos}, nil
		}
	}
	pos := p.cur().Pos
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &ExprStmt{X: x, Pos: pos}, nil
}

// parseAction parses the action of an if/while: one statement or a braced
// block. An immediate ';' is the empty action.
func (p *Parser) parseAction() ([]Stmt, error) {
	if p.cur().Kind == SEMI {
		p.next()
		return nil, nil
	}
	if p.cur().Kind == LBRACE {
		p.next()
		var stmts []Stmt
		for p.cur().Kind != RBRACE {
			if p.cur().Kind == EOF {
				return nil, p.errf("unterminated block")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if s != nil {
				stmts = append(stmts, s)
			}
		}
		p.next()
		return stmts, nil
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, nil
	}
	return []Stmt{s}, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	pos := p.next().Pos // if
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	then, err := p.parseAction()
	if err != nil {
		return nil, err
	}
	var els []Stmt
	if p.cur().Kind == KWELSE {
		p.next()
		els, err = p.parseAction()
		if err != nil {
			return nil, err
		}
	}
	return &IfStmt{Cond: cond, Then: then, Else: els, Pos: pos}, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	pos := p.next().Pos // while
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.parseAction()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Pos: pos}, nil
}

// --- expressions ------------------------------------------------------

func (p *Parser) parseExpr() (Expr, error) {
	x, err := p.parseChain()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == PLUS || p.cur().Kind == MINUS {
		op := byte('+')
		if p.cur().Kind == MINUS {
			op = '-'
		}
		opPos := p.next().Pos
		y, err := p.parseChain()
		if err != nil {
			return nil, err
		}
		x = &BinExpr{Op: op, X: x, Y: y, Pos: opPos}
	}
	return x, nil
}

func (p *Parser) parseChain() (Expr, error) {
	switch {
	case p.cur().Kind == LBRACKET:
		predPos := p.cur().Pos
		pred, err := p.parseSelPred()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SLASH); err != nil {
			return nil, err
		}
		x, err := p.parseChain()
		if err != nil {
			return nil, err
		}
		return &SelectExpr{Pred: pred, X: x, Pos: predPos}, nil
	case p.cur().Kind == INT && p.peek().Kind == SLASH:
		tok := p.next()
		p.next() // '/'
		x, err := p.parseChain()
		if err != nil {
			return nil, err
		}
		return &LabelSelExpr{Num: tok.Num, X: x, Pos: tok.Pos}, nil
	}
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	sep := p.cur().Kind
	if sep != COLON && sep != DOT {
		return x, nil
	}
	p.next()
	opTok := p.next()
	var opName string
	switch opTok.Kind {
	case IDENT:
		opName = opTok.Text
	case LT:
		opName = "<"
	case LE:
		opName = "<="
	default:
		return nil, fmt.Errorf("callang: %v: expected listop, got %s", opTok.Pos, opTok)
	}
	if p.cur().Kind != sep {
		return nil, p.errf("foreach separators must match (use A:op:B or A.op.B)")
	}
	p.next()
	y, err := p.parseChain()
	if err != nil {
		return nil, err
	}
	if opName == "intersects" {
		if sep == DOT {
			return nil, fmt.Errorf("callang: %v: intersects takes ':' separators", opTok.Pos)
		}
		return &IntersectExpr{X: x, Y: y, Pos: opTok.Pos}, nil
	}
	op, err := interval.ParseListOp(opName)
	if err != nil {
		return nil, fmt.Errorf("callang: %v: %w", opTok.Pos, err)
	}
	return &ForeachExpr{X: x, Op: op, Strict: sep == COLON, Y: y, Pos: opTok.Pos}, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.cur().Kind {
	case IDENT:
		tok := p.next()
		if p.cur().Kind == LPAREN {
			p.next()
			var args []Expr
			if p.cur().Kind != RPAREN {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.cur().Kind != COMMA {
						break
					}
					p.next()
				}
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			return &CallExpr{Name: tok.Text, Args: args, Pos: tok.Pos}, nil
		}
		return &Ident{Name: tok.Text, Pos: tok.Pos}, nil
	case LPAREN:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return x, nil
	case INT:
		tok := p.next()
		return &Number{Val: tok.Num, Pos: tok.Pos}, nil
	case MINUS:
		if p.peek().Kind == INT {
			pos := p.next().Pos
			return &Number{Val: -p.next().Num, Pos: pos}, nil
		}
		return nil, p.errf("unexpected '-'")
	case STRING:
		tok := p.next()
		return &StringLit{Val: tok.Text, Pos: tok.Pos}, nil
	}
	return nil, p.errf("unexpected %s in expression", p.cur())
}

func (p *Parser) parseSelPred() (calendar.Selection, error) {
	open, err := p.expect(LBRACKET)
	if err != nil {
		return calendar.Selection{}, err
	}
	var sel calendar.Selection
	for {
		item, err := p.parseSelItem()
		if err != nil {
			return calendar.Selection{}, err
		}
		sel.Items = append(sel.Items, item)
		if p.cur().Kind != COMMA {
			break
		}
		p.next()
	}
	if _, err := p.expect(RBRACKET); err != nil {
		return calendar.Selection{}, err
	}
	if err := sel.Check(); err != nil {
		return calendar.Selection{}, fmt.Errorf("callang: %v: %w", open.Pos, err)
	}
	return sel, nil
}

func (p *Parser) parseSelItem() (calendar.SelItem, error) {
	if p.cur().Kind == IDENT && p.cur().Text == "n" {
		p.next()
		return calendar.SelItem{Last: true}, nil
	}
	signedInt := func() (int, error) {
		neg := false
		if p.cur().Kind == MINUS {
			neg = true
			p.next()
		}
		t, err := p.expect(INT)
		if err != nil {
			return 0, err
		}
		v := int(t.Num)
		if neg {
			v = -v
		}
		return v, nil
	}
	from, err := signedInt()
	if err != nil {
		return calendar.SelItem{}, err
	}
	if p.cur().Kind == MINUS && (p.peek().Kind == INT || p.peek().Kind == MINUS) {
		p.next()
		to, err := signedInt()
		if err != nil {
			return calendar.SelItem{}, err
		}
		return calendar.SelItem{Range: true, From: from, To: to}, nil
	}
	return calendar.SelItem{Pos: from}, nil
}
