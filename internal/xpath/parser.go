package xpath

import (
	"fmt"
	"slices"
	"strconv"
)

// Compile parses an XPath expression into an executable form.
func Compile(src string) (*Compiled, error) {
	p := NewParser(src, false)
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.Errorf("unexpected %s", p.tok.kind)
	}
	return &Compiled{Source: src, Root: e}, nil
}

// MustCompile is Compile that panics on error; for tests and constants.
func MustCompile(src string) *Compiled {
	c, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return c
}

// Parser reads query text one token at a time: XPath's tokens plus
// XQuery's {, }, := and ;. Compile runs it over one expression; the
// xquery parser drives it through a whole query, reading its own
// keywords and punctuation with Word and Is, handing each embedded
// expression to Expr at the current token, and reading element content
// raw between Seeks. All its errors are *SyntaxError, with offsets into
// the text given to NewParser.
type Parser struct {
	lexer
	tok     token // the current token
	ahead   token // the token after it, once peek has lexed it
	peeked  bool
	docVars bool     // doc("name") reads as the variable DocVar+name
	docs    []string // the names those calls referenced, for Expr
}

// NewParser returns a parser positioned at the first token of src.
// With docVars set, a call doc("name") — one string literal, nothing
// else — is read as the variable reference $#doc:name (DocVar).
func NewParser(src string, docVars bool) *Parser {
	p := &Parser{lexer: lexer{src: src}, docVars: docVars}
	p.tok = p.lex()
	return p
}

// Expr parses an XPath expression starting at the current token and
// stops at the first token the grammar cannot continue with. docs are
// the names of the doc() calls it read, each once, in order.
func (p *Parser) Expr() (e Expr, docs []string, err error) {
	p.docs = nil
	e, err = p.parseExpr()
	return e, p.docs, err
}

// Word returns the current token's text if it is a name, else "".
func (p *Parser) Word() string {
	if p.tok.kind == tokIdent {
		return p.tok.text
	}
	return ""
}

// Is reports whether the current token is the punctuation sym.
func (p *Parser) Is(sym string) bool { return p.tok.kind > tokString && p.tok.text == sym }

// Pos returns the offset of the current token; at the end of the text
// it is the text's length.
func (p *Parser) Pos() int { return p.tok.pos }

// Next moves to the following token.
func (p *Parser) Next() {
	if p.peeked {
		p.tok, p.peeked = p.ahead, false
		return
	}
	p.tok = p.lex()
}

// Seek makes the token at or after offset pos the current one.
func (p *Parser) Seek(pos int) {
	p.lexer.pos, p.peeked = pos, false
	p.tok = p.lex()
}

// Errorf reports a syntax error at the current token, or the token's
// own error if it is malformed.
func (p *Parser) Errorf(format string, args ...any) error {
	if p.tok.kind == tokError {
		return &SyntaxError{Expr: p.src, Pos: p.tok.pos, Msg: p.tok.text}
	}
	return &SyntaxError{Expr: p.src, Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) peek() token {
	if !p.peeked {
		p.ahead, p.peeked = p.lex(), true
	}
	return p.ahead
}

func (p *Parser) next() token { t := p.tok; p.Next(); return t }

func (p *Parser) accept(kind tokenKind) bool {
	if p.tok.kind == kind {
		p.Next()
		return true
	}
	return false
}

func (p *Parser) expect(kind tokenKind) error {
	if !p.accept(kind) {
		return p.Errorf("expected %s, found %s", kind, p.tok.kind)
	}
	return nil
}

// acceptKeyword consumes an identifier token with the given text when
// it appears in operator position.
func (p *Parser) acceptKeyword(word string) bool {
	if p.tok.kind == tokIdent && p.tok.text == word {
		p.Next()
		return true
	}
	return false
}

// Expr := OrExpr
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		r, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseEquality() (Expr, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.tok.kind {
		case tokEq:
			op = "="
		case tokNeq:
			op = "!="
		default:
			return l, nil
		}
		p.Next()
		r, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseRelational() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.tok.kind {
		case tokLt:
			op = "<"
		case tokLe:
			op = "<="
		case tokGt:
			op = ">"
		case tokGe:
			op = ">="
		default:
			return l, nil
		}
		p.Next()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.tok.kind {
		case tokPlus:
			op = "+"
		case tokMinus:
			op = "-"
		default:
			return l, nil
		}
		p.Next()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.tok.kind == tokStar:
			op = "*"
		case p.tok.kind == tokIdent && p.tok.text == "div":
			op = "div"
		case p.tok.kind == tokIdent && p.tok.text == "mod":
			op = "mod"
		default:
			return l, nil
		}
		p.Next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.accept(tokMinus) {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NegExpr{X: x}, nil
	}
	return p.parseUnion()
}

func (p *Parser) parseUnion() (Expr, error) {
	l, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokPipe {
		return l, nil
	}
	u := &UnionExpr{Paths: []Expr{l}}
	for p.accept(tokPipe) {
		r, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		u.Paths = append(u.Paths, r)
	}
	return u, nil
}

// parsePath parses [primary [predicates]] [/ steps] | absolute path |
// relative path.
func (p *Parser) parsePath() (Expr, error) {
	switch p.tok.kind {
	case tokSlash:
		p.Next()
		pe := &PathExpr{Absolute: true}
		if p.startsStep() {
			if err := p.parseSteps(pe); err != nil {
				return nil, err
			}
		}
		return pe, nil
	case tokSlashSlash:
		p.Next()
		pe := &PathExpr{Absolute: true}
		pe.Steps = append(pe.Steps, Step{Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestNode}})
		if err := p.parseSteps(pe); err != nil {
			return nil, err
		}
		return pe, nil
	}

	// Primary expression start? (literal, number, variable, '(' or
	// function call). A function call is ident followed by '(' — but
	// node-test keywords text/node/comment are handled in steps.
	if prim, ok, err := p.tryParsePrimary(); err != nil {
		return nil, err
	} else if ok {
		pe := &PathExpr{Filter: prim}
		for p.accept(tokLBracket) {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			pe.Preds = append(pe.Preds, pred)
		}
		for {
			if p.tok.kind == tokSlash {
				p.Next()
			} else if p.tok.kind == tokSlashSlash {
				p.Next()
				pe.Steps = append(pe.Steps, Step{Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestNode}})
			} else {
				break
			}
			st, err := p.parseStep()
			if err != nil {
				return nil, err
			}
			pe.Steps = append(pe.Steps, st)
		}
		if len(pe.Steps) == 0 && len(pe.Preds) == 0 {
			return prim, nil
		}
		return pe, nil
	}

	// Relative location path.
	pe := &PathExpr{}
	if err := p.parseSteps(pe); err != nil {
		return nil, err
	}
	return pe, nil
}

func (p *Parser) parseSteps(pe *PathExpr) error {
	st, err := p.parseStep()
	if err != nil {
		return err
	}
	pe.Steps = append(pe.Steps, st)
	for {
		if p.tok.kind == tokSlash {
			p.Next()
		} else if p.tok.kind == tokSlashSlash {
			p.Next()
			pe.Steps = append(pe.Steps, Step{Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestNode}})
		} else {
			return nil
		}
		st, err := p.parseStep()
		if err != nil {
			return err
		}
		pe.Steps = append(pe.Steps, st)
	}
}

// startsStep reports whether the current token can begin a location step.
func (p *Parser) startsStep() bool {
	switch p.tok.kind {
	case tokIdent, tokStar, tokAt, tokDot, tokDotDot:
		return true
	}
	return false
}

func (p *Parser) parseStep() (Step, error) {
	switch p.tok.kind {
	case tokDot:
		p.Next()
		return Step{Axis: AxisSelf, Test: NodeTest{Kind: TestNode}}, nil
	case tokDotDot:
		p.Next()
		return Step{Axis: AxisParent, Test: NodeTest{Kind: TestNode}}, nil
	case tokAt:
		p.Next()
		test, err := p.parseNodeTest()
		if err != nil {
			return Step{}, err
		}
		st := Step{Axis: AxisAttribute, Test: test}
		return p.parsePredicates(st)
	case tokIdent:
		// axis::… ?
		if p.peek().kind == tokAxis {
			axName := p.tok.text
			ax, ok := axisNames[axName]
			if !ok {
				return Step{}, p.Errorf("unknown axis %q", axName)
			}
			p.Next()
			p.Next()
			test, err := p.parseNodeTest()
			if err != nil {
				return Step{}, err
			}
			return p.parsePredicates(Step{Axis: ax, Test: test})
		}
		test, err := p.parseNodeTest()
		if err != nil {
			return Step{}, err
		}
		return p.parsePredicates(Step{Axis: AxisChild, Test: test})
	case tokStar:
		p.Next()
		return p.parsePredicates(Step{Axis: AxisChild, Test: NodeTest{Kind: TestWild}})
	default:
		return Step{}, p.Errorf("expected location step, found %s", p.tok.kind)
	}
}

func (p *Parser) parseNodeTest() (NodeTest, error) {
	if p.accept(tokStar) {
		return NodeTest{Kind: TestWild}, nil
	}
	if p.tok.kind != tokIdent {
		return NodeTest{}, p.Errorf("expected node test, found %s", p.tok.kind)
	}
	name := p.next().text
	// text() / node() / comment()
	if p.tok.kind == tokLParen {
		switch name {
		case "text", "node", "comment":
			p.Next()
			if err := p.expect(tokRParen); err != nil {
				return NodeTest{}, err
			}
			switch name {
			case "text":
				return NodeTest{Kind: TestText}, nil
			case "node":
				return NodeTest{Kind: TestNode}, nil
			default:
				return NodeTest{Kind: TestComment}, nil
			}
		default:
			return NodeTest{}, p.Errorf("function %q cannot be used as a node test", name)
		}
	}
	return NodeTest{Kind: TestName, Name: name}, nil
}

func (p *Parser) parsePredicates(st Step) (Step, error) {
	for p.accept(tokLBracket) {
		e, err := p.parsePredicate()
		if err != nil {
			return Step{}, err
		}
		st.Preds = append(st.Preds, e)
	}
	return st, nil
}

// parsePredicate parses a predicate's expression and its closing ']',
// the '[' already read.
func (p *Parser) parsePredicate() (Expr, error) {
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokRBracket); err != nil {
		return nil, err
	}
	return e, nil
}

// tryParsePrimary recognizes primary expressions that can start a
// filter path: literals, numbers, variables, parenthesized expressions
// and function calls. It returns ok=false when the tokens should be
// parsed as a relative location path instead.
func (p *Parser) tryParsePrimary() (Expr, bool, error) {
	switch p.tok.kind {
	case tokString:
		t := p.next()
		return StringLit(t.text), true, nil
	case tokNumber:
		t := p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, false, p.Errorf("bad number %q", t.text)
		}
		return NumberLit(v), true, nil
	case tokDollar:
		p.Next()
		if p.tok.kind != tokIdent {
			return nil, false, p.Errorf("expected variable name after '$'")
		}
		return VarRef(p.next().text), true, nil
	case tokLParen:
		p.Next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, false, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, false, err
		}
		return e, true, nil
	case tokIdent:
		name, pos := p.tok.text, p.tok.pos
		// Function call (but not node-test keywords).
		if p.peek().kind == tokLParen {
			switch name {
			case "text", "node", "comment":
				return nil, false, nil // node test, not a function
			}
			p.Next()
			p.Next()
			fc := &FuncCall{Name: name}
			if p.tok.kind != tokRParen {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, false, err
					}
					fc.Args = append(fc.Args, arg)
					if !p.accept(tokComma) {
						break
					}
				}
			}
			if err := p.expect(tokRParen); err != nil {
				return nil, false, err
			}
			if name == "doc" && p.docVars {
				v, err := p.docRef(fc, pos)
				return v, err == nil, err
			}
			return fc, true, nil
		}
		return nil, false, nil
	default:
		return nil, false, nil
	}
}

// docRef reads doc("name") as the variable $#doc:name.
func (p *Parser) docRef(fc *FuncCall, pos int) (Expr, error) {
	if len(fc.Args) != 1 {
		return nil, &SyntaxError{Expr: p.src, Pos: pos, Msg: "doc() takes exactly one argument"}
	}
	lit, ok := fc.Args[0].(StringLit)
	if !ok {
		return nil, &SyntaxError{Expr: p.src, Pos: pos, Msg: "doc() argument must be a string literal"}
	}
	if !slices.Contains(p.docs, string(lit)) {
		p.docs = append(p.docs, string(lit))
	}
	return VarRef(DocVar + string(lit)), nil
}
