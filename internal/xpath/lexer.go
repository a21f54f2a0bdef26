// Package xpath implements an XPath 1.0 subset over xmltree documents:
// the location-path core (all major axes, name/wildcard/text()/node()
// tests, predicates with positions), the boolean/number/string operator
// grammar, variables, and the core function library. It is the path
// engine underneath the xquery FLWR language and, through it, the
// declarative services of the AXML framework.
//
// Deviations from the W3C recommendation are deliberate and documented:
// node-sets preserve first-visit order (the stored sibling order acts as
// document order), reverse axes yield document order rather than
// proximity order, and namespaces are uninterpreted (a prefixed name is
// an ordinary label containing ':'). A filter's predicates, as in
// ($v/a | $v/b)[1], sort their node-set into document order first.
//
// Trees carry no parent pointers, so where a node sits is a property of
// the trees an evaluation reads: the parent, ancestor and sibling axes
// and absolute paths reach only the trees named in Context.Trees, by
// default the context node's own tree (see Trees). An expression that
// only looks down (DownwardOnly) never needs them.
//
// Query text has one lexer, this package's: a Parser hands out XPath's
// tokens plus XQuery's { } := and ; one at a time, with whitespace and
// nested (: … :) comments between them. Compile reads one expression
// with it; the xquery parser reads a whole query, handing each
// embedded expression back to it. Query text has one printer too,
// Append: every expression, a doc("name") included, renders through it
// into one buffer, as text that parses back to the same tree.
package xpath

import (
	"fmt"
	"strings"
)

type tokenKind uint8

const (
	tokEOF   tokenKind = iota
	tokError           // a malformed token; text is the message
	tokIdent
	tokNumber
	tokString
	// Punctuation follows; a punctuation token's text is its symbol.
	tokSlash      // /
	tokSlashSlash // //
	tokLBracket   // [
	tokRBracket   // ]
	tokLParen     // (
	tokRParen     // )
	tokAt         // @
	tokComma      // ,
	tokAxis       // ::
	tokPipe       // |
	tokPlus       // +
	tokMinus      // -
	tokStar       // * (wildcard or multiply; parser decides via prev token)
	tokEq         // =
	tokNeq        // !=
	tokLt         // <
	tokLe         // <=
	tokGt         // >
	tokGe         // >=
	tokDollar     // $
	tokDot        // .
	tokDotDot     // ..
	tokLBrace     // { (XQuery)
	tokRBrace     // } (XQuery)
	tokAssign     // := (XQuery)
	tokSemi       // ; (XQuery)
)

func (k tokenKind) String() string {
	names := map[tokenKind]string{
		tokEOF: "end of expression", tokError: "malformed token", tokIdent: "name",
		tokNumber: "number", tokString: "string", tokSlash: "/", tokSlashSlash: "//",
		tokLBracket: "[", tokRBracket: "]", tokLParen: "(", tokRParen: ")",
		tokAt: "@", tokComma: ",", tokAxis: "::", tokPipe: "|",
		tokPlus: "+", tokMinus: "-", tokStar: "*", tokEq: "=", tokNeq: "!=",
		tokLt: "<", tokLe: "<=", tokGt: ">", tokGe: ">=", tokDollar: "$",
		tokDot: ".", tokDotDot: "..", tokLBrace: "{", tokRBrace: "}",
		tokAssign: ":=", tokSemi: ";",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", uint8(k))
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

// SyntaxError reports an XPath or XQuery syntax error; Pos is an offset
// into Expr, the text the caller passed.
type SyntaxError struct {
	Expr string
	Pos  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xpath: %s at offset %d in %q", e.Msg, e.Pos, e.Expr)
}

// lexer hands out the tokens of src one at a time, so that a caller
// may read some of the text raw (XQuery's element content) and resume
// lexing after it. Whitespace and (: … :) comments, which nest,
// separate tokens; a comment is never looked for inside a token.
type lexer struct {
	src string
	pos int
}

// lex returns the token at l.pos and moves past it. A malformed token
// comes back as tokError, so that it is reported only if the grammar
// reaches it.
func (l *lexer) lex() token {
	if open := l.skipSpace(); open >= 0 {
		return l.fail(open, "unterminated comment")
	}
	start := l.pos
	if start >= len(l.src) {
		return token{kind: tokEOF, pos: start}
	}
	c := l.src[start]
	kind, n := tokenKind(0), 1
	switch c {
	case '/':
		kind = tokSlash
		if l.peekAt(1) == '/' {
			kind, n = tokSlashSlash, 2
		}
	case '[':
		kind = tokLBracket
	case ']':
		kind = tokRBracket
	case '(':
		kind = tokLParen
	case ')':
		kind = tokRParen
	case '@':
		kind = tokAt
	case ',':
		kind = tokComma
	case '|':
		kind = tokPipe
	case '+':
		kind = tokPlus
	case '-':
		kind = tokMinus
	case '*':
		kind = tokStar
	case '=':
		kind = tokEq
	case '$':
		kind = tokDollar
	case '{':
		kind = tokLBrace
	case '}':
		kind = tokRBrace
	case ';':
		kind = tokSemi
	case '!':
		if l.peekAt(1) != '=' {
			return l.fail(start, "unexpected '!'")
		}
		kind, n = tokNeq, 2
	case '<':
		kind = tokLt
		if l.peekAt(1) == '=' {
			kind, n = tokLe, 2
		}
	case '>':
		kind = tokGt
		if l.peekAt(1) == '=' {
			kind, n = tokGe, 2
		}
	case ':':
		switch l.peekAt(1) {
		case ':':
			kind, n = tokAxis, 2
		case '=':
			kind, n = tokAssign, 2
		default:
			return l.fail(start, "unexpected ':'")
		}
	case '.':
		if isDigit(l.peekAt(1)) {
			return l.lexNumber()
		}
		kind = tokDot
		if l.peekAt(1) == '.' {
			kind, n = tokDotDot, 2
		}
	case '"', '\'':
		return l.lexString(c)
	default:
		switch {
		case isDigit(c):
			return l.lexNumber()
		case isNameStart(c):
			return l.lexName()
		}
		return l.fail(start, fmt.Sprintf("unexpected character %q", string(c)))
	}
	l.pos += n
	return token{kind: kind, text: l.src[start:l.pos], pos: start}
}

func (l *lexer) fail(pos int, msg string) token {
	l.pos = len(l.src)
	return token{kind: tokError, text: msg, pos: pos}
}

// skipSpace moves past whitespace and comments. It returns the offset
// of a comment that is not closed, or -1.
func (l *lexer) skipSpace() int {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		case '(':
			if l.peekAt(1) != ':' {
				return -1
			}
			start, depth := l.pos, 0
			for {
				if l.pos+1 >= len(l.src) {
					return start
				}
				switch l.src[l.pos : l.pos+2] {
				case "(:":
					depth++
					l.pos += 2
				case ":)":
					depth--
					l.pos += 2
				default:
					l.pos++
					continue
				}
				if depth == 0 {
					break
				}
			}
		default:
			return -1
		}
	}
	return -1
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) lexNumber() token {
	start := l.pos
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}
}

func (l *lexer) lexString(quote byte) token {
	start := l.pos
	idx := strings.IndexByte(l.src[start+1:], quote)
	if idx < 0 {
		return l.fail(start, "unterminated string literal")
	}
	l.pos = start + 1 + idx + 1
	return token{kind: tokString, text: l.src[start+1 : start+1+idx], pos: start}
}

func (l *lexer) lexName() token {
	start := l.pos
	for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
		l.pos++
	}
	// Allow one ':' for prefixed names (not followed by another ':').
	if l.pos < len(l.src) && l.src[l.pos] == ':' && l.peekAt(1) != ':' && l.pos+1 < len(l.src) && isNameStart(l.src[l.pos+1]) {
		l.pos++
		for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
			l.pos++
		}
	}
	return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || isDigit(c)
}
