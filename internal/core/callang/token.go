// Package callang implements the calendar expression language of §3.3 of the
// paper: a lexer, a recursive-descent parser producing printable parse trees
// (Figures 2 and 3), the derived-calendar inliner, and the factorization
// optimizer of §3.4.
//
// The shape of the tree — nine expression nodes, five statement nodes — is
// spelled once, in ast.go: Walk and WalkStmts visit it, MapChildren rebuilds
// it. A pass that only traverses or rewrites is a callback over those three;
// a new node type is added there (and to the per-node methods beside them),
// not to the passes.
package callang

import "fmt"

// Kind classifies lexical tokens.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	INT
	STRING
	LBRACE   // {
	RBRACE   // }
	LBRACKET // [
	RBRACKET // ]
	LPAREN   // (
	RPAREN   // )
	COLON    // :
	DOT      // .
	SLASH    // /
	PLUS     // +
	MINUS    // -
	ASSIGN   // =
	SEMI     // ;
	COMMA    // ,
	LT       // <
	LE       // <=
	KWIF     // if
	KWELSE   // else
	KWWHILE  // while
	KWRETURN // return
)

var kindNames = map[Kind]string{
	EOF: "end of input", IDENT: "identifier", INT: "integer", STRING: "string",
	LBRACE: "'{'", RBRACE: "'}'", LBRACKET: "'['", RBRACKET: "']'",
	LPAREN: "'('", RPAREN: "')'", COLON: "':'", DOT: "'.'", SLASH: "'/'",
	PLUS: "'+'", MINUS: "'-'", ASSIGN: "'='", SEMI: "';'", COMMA: "','",
	LT: "'<'", LE: "'<='", KWIF: "'if'", KWELSE: "'else'",
	KWWHILE: "'while'", KWRETURN: "'return'",
}

// String names the token kind for error messages.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pos is a 1-based line/column source position.
type Pos struct {
	Line, Col int
}

// String formats the position as line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a lexical token with its source text and position.
type Token struct {
	Kind Kind
	Text string // identifier name, integer literal, or string contents
	Num  int64  // value when Kind == INT
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT:
		return t.Text
	case STRING:
		return fmt.Sprintf("%q", t.Text)
	default:
		return t.Kind.String()
	}
}
