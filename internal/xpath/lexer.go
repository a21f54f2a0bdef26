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
// an ordinary label containing ':').
//
// Trees carry no parent pointers, so where a node sits is a property of
// the trees an evaluation reads: the parent, ancestor and sibling axes
// and absolute paths reach only the trees named in Context.Trees, by
// default the context node's own tree (see Trees). An expression that
// only looks down (DownwardOnly) never needs them.
package xpath

import (
	"fmt"
	"strings"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
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
)

func (k tokenKind) String() string {
	names := map[tokenKind]string{
		tokEOF: "end of expression", tokIdent: "name", tokNumber: "number",
		tokString: "string", tokSlash: "/", tokSlashSlash: "//",
		tokLBracket: "[", tokRBracket: "]", tokLParen: "(", tokRParen: ")",
		tokAt: "@", tokComma: ",", tokAxis: "::", tokPipe: "|",
		tokPlus: "+", tokMinus: "-", tokStar: "*", tokEq: "=", tokNeq: "!=",
		tokLt: "<", tokLe: "<=", tokGt: ">", tokGe: ">=", tokDollar: "$",
		tokDot: ".", tokDotDot: "..",
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

// SyntaxError reports an XPath compilation failure.
type SyntaxError struct {
	Expr string
	Pos  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xpath: %s at offset %d in %q", e.Msg, e.Pos, e.Expr)
}

type lexer struct {
	src    string
	pos    int
	tokens []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipWS()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "")
			return l.tokens, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '/':
			if l.peekAt(1) == '/' {
				l.pos += 2
				l.emitAt(tokSlashSlash, "//", start)
			} else {
				l.pos++
				l.emitAt(tokSlash, "/", start)
			}
		case c == '[':
			l.pos++
			l.emitAt(tokLBracket, "[", start)
		case c == ']':
			l.pos++
			l.emitAt(tokRBracket, "]", start)
		case c == '(':
			l.pos++
			l.emitAt(tokLParen, "(", start)
		case c == ')':
			l.pos++
			l.emitAt(tokRParen, ")", start)
		case c == '@':
			l.pos++
			l.emitAt(tokAt, "@", start)
		case c == ',':
			l.pos++
			l.emitAt(tokComma, ",", start)
		case c == '|':
			l.pos++
			l.emitAt(tokPipe, "|", start)
		case c == '+':
			l.pos++
			l.emitAt(tokPlus, "+", start)
		case c == '-':
			l.pos++
			l.emitAt(tokMinus, "-", start)
		case c == '*':
			l.pos++
			l.emitAt(tokStar, "*", start)
		case c == '=':
			l.pos++
			l.emitAt(tokEq, "=", start)
		case c == '!':
			if l.peekAt(1) != '=' {
				return nil, &SyntaxError{Expr: l.src, Pos: start, Msg: "unexpected '!'"}
			}
			l.pos += 2
			l.emitAt(tokNeq, "!=", start)
		case c == '<':
			if l.peekAt(1) == '=' {
				l.pos += 2
				l.emitAt(tokLe, "<=", start)
			} else {
				l.pos++
				l.emitAt(tokLt, "<", start)
			}
		case c == '>':
			if l.peekAt(1) == '=' {
				l.pos += 2
				l.emitAt(tokGe, ">=", start)
			} else {
				l.pos++
				l.emitAt(tokGt, ">", start)
			}
		case c == '$':
			l.pos++
			l.emitAt(tokDollar, "$", start)
		case c == ':':
			if l.peekAt(1) == ':' {
				l.pos += 2
				l.emitAt(tokAxis, "::", start)
			} else {
				return nil, &SyntaxError{Expr: l.src, Pos: start, Msg: "unexpected ':'"}
			}
		case c == '.':
			if l.peekAt(1) == '.' {
				l.pos += 2
				l.emitAt(tokDotDot, "..", start)
			} else if isDigit(l.peekAt(1)) {
				l.lexNumber()
			} else {
				l.pos++
				l.emitAt(tokDot, ".", start)
			}
		case c == '"' || c == '\'':
			if err := l.lexString(c); err != nil {
				return nil, err
			}
		case isDigit(c):
			l.lexNumber()
		case isNameStart(c):
			l.lexName()
		default:
			return nil, &SyntaxError{Expr: l.src, Pos: start, Msg: fmt.Sprintf("unexpected character %q", string(c))}
		}
	}
}

func (l *lexer) skipWS() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) emit(kind tokenKind, text string) { l.emitAt(kind, text, l.pos) }

func (l *lexer) emitAt(kind tokenKind, text string, pos int) {
	l.tokens = append(l.tokens, token{kind: kind, text: text, pos: pos})
}

func (l *lexer) lexNumber() {
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
	l.emitAt(tokNumber, l.src[start:l.pos], start)
}

func (l *lexer) lexString(quote byte) error {
	start := l.pos
	l.pos++ // opening quote
	idx := strings.IndexByte(l.src[l.pos:], quote)
	if idx < 0 {
		return &SyntaxError{Expr: l.src, Pos: start, Msg: "unterminated string literal"}
	}
	text := l.src[l.pos : l.pos+idx]
	l.pos += idx + 1
	l.emitAt(tokString, text, start)
	return nil
}

func (l *lexer) lexName() {
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
	l.emitAt(tokIdent, l.src[start:l.pos], start)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || isDigit(c)
}
