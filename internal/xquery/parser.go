package xquery

import (
	"strings"

	"axml/internal/xpath"
)

// Parse parses a query:
//
//	[param $a, $b;] expr
//
// where expr is a FLWR expression, an element constructor, or an XPath
// expression (with doc("name") document references). Its errors are
// *xpath.SyntaxError, with offsets into src. It refuses every other
// statement, so a view, a service body or a shipped plan is a query.
func Parse(src string) (*Query, error) {
	st, err := ParseStatement(src)
	if err == nil && st.Kind != "query" {
		err = &xpath.SyntaxError{Expr: src, Msg: "a " + st.Kind + " statement is not a query"}
	}
	if err != nil {
		return nil, err
	}
	return st.Query, nil
}

func newParser(src string) qparser {
	return qparser{Parser: xpath.NewParser(src, true), src: src}
}

// parseQuery reads [param $a, $b;] expr from the current token.
func (p *qparser) parseQuery() (*Query, error) {
	q := &Query{}
	if p.Word() == "param" {
		p.Next()
		for {
			name, err := p.varName()
			if err != nil {
				return nil, err
			}
			q.Params = append(q.Params, name)
			if p.Is(",") {
				p.Next()
				continue
			}
			if p.Is(";") {
				p.Next()
				break
			}
			return nil, p.Errorf("expected ',' or ';' in parameter list")
		}
	}
	var err error
	if q.Body, err = p.parseExpr(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// qparser reads the XQuery grammar from the one token stream that
// xpath.Parser hands out: its keywords are names wherever the XPath
// grammar has ended, and element content is read raw from src.
type qparser struct {
	*xpath.Parser
	src string
}

// errAt reports a syntax error at offset pos of the text, for the parts
// read raw.
func (p *qparser) errAt(pos int, msg string) error {
	return &xpath.SyntaxError{Expr: p.src, Pos: pos, Msg: msg}
}

// at reports whether the current token starts with the byte c, so that
// a tag's '>' or '/>' is found whatever the lexer made of what follows.
func (p *qparser) at(c byte) bool {
	i := p.Pos()
	return i < len(p.src) && p.src[i] == c
}

// varName reads $name.
func (p *qparser) varName() (string, error) {
	if !p.Is("$") {
		return "", p.Errorf("expected '$variable'")
	}
	p.Next()
	name := p.Word()
	if name == "" {
		return "", p.Errorf("expected variable name")
	}
	p.Next()
	return name, nil
}

// parseExpr parses a full query expression: FLWR, constructor, or
// XPath expression.
func (p *qparser) parseExpr() (Expr, error) {
	switch {
	case p.Word() == "for" || p.Word() == "let":
		return p.parseFLWR()
	case p.Is("<"):
		e, end, err := p.parseConstructor()
		if err != nil {
			return nil, err
		}
		p.Seek(end)
		return e, nil
	default:
		x, docs, err := p.Expr()
		if err != nil {
			return nil, err
		}
		return &Path{X: x, Docs: docs}, nil
	}
}

func (p *qparser) parseFLWR() (Expr, error) {
	f := &FLWR{}
	for kw := p.Word(); kw == "for" || kw == "let"; kw = p.Word() {
		p.Next()
		for {
			v, err := p.varName()
			if err != nil {
				return nil, err
			}
			if kw == "for" && p.Word() != "in" {
				return nil, p.Errorf("expected 'in' after variable $%s", v)
			}
			if kw == "let" && !p.Is(":=") {
				return nil, p.Errorf("expected ':=' after let variable $%s", v)
			}
			p.Next()
			src, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if kw == "for" {
				f.Clauses = append(f.Clauses, ForClause{Var: v, Source: src})
			} else {
				f.Clauses = append(f.Clauses, LetClause{Var: v, Source: src})
			}
			if !p.Is(",") {
				break
			}
			p.Next()
		}
	}
	if p.Word() == "where" {
		p.Next()
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Where = w
	}
	if p.Word() == "stable" {
		p.Next()
	}
	if p.Word() == "order" {
		p.Next()
		if p.Word() != "by" {
			return nil, p.Errorf("expected 'by' after 'order'")
		}
		p.Next()
		key, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Order = &OrderSpec{Key: key}
		switch p.Word() {
		case "descending":
			p.Next()
			f.Order.Descending = true
		case "ascending":
			p.Next()
		}
	}
	if p.Word() != "return" {
		return nil, p.Errorf("expected 'return'")
	}
	p.Next()
	ret, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	f.Return = ret
	return f, nil
}

// parseConstructor parses <label attr="v" attr2="{expr}">content</label>
// from the current '<' token and returns the offset just past it.
func (p *qparser) parseConstructor() (*Elem, int, error) {
	lt := p.Pos()
	p.Next()
	label := p.Word()
	if label == "" || p.Pos() != lt+1 {
		return nil, 0, p.Errorf("expected element name in constructor")
	}
	e := &Elem{Label: label}
	p.Next()
	for {
		switch {
		case p.at('/'):
			end := p.Pos() + 2
			if end > len(p.src) || p.src[end-1] != '>' {
				return nil, 0, p.errAt(end-1, "expected '>' after '/' in constructor")
			}
			return e, end, nil
		case p.at('>'):
			end, err := p.parseContent(e, p.Pos()+1)
			return e, end, err
		}
		aname := p.Word()
		if aname == "" {
			return nil, 0, p.Errorf("expected attribute name or '>' in constructor <%s>", label)
		}
		p.Next()
		if !p.Is("=") {
			return nil, 0, p.Errorf("expected '=' after attribute %q", aname)
		}
		p.Next()
		// The value is read raw to its closing quote.
		open := p.Pos()
		if !p.at('"') && !p.at('\'') {
			return nil, 0, p.Errorf("expected quoted attribute value")
		}
		n := strings.IndexByte(p.src[open+1:], p.src[open])
		if n < 0 {
			return nil, 0, p.errAt(open, "unterminated attribute value")
		}
		closing := open + 1 + n
		raw := p.src[open+1 : closing]
		at := AttrTemplate{Name: aname}
		if strings.HasPrefix(raw, "{") && strings.HasSuffix(raw, "}") {
			p.Seek(open + 2)
			x, err := p.parseExpr()
			if err != nil {
				return nil, 0, err
			}
			if !p.Is("}") || p.Pos() != closing-1 {
				return nil, 0, p.Errorf("expected '}' closing attribute %q", aname)
			}
			at.Computed = x
		} else {
			at.Literal = unescapeLit(raw)
		}
		e.Attrs = append(e.Attrs, at)
		p.Seek(closing + 1)
	}
}

// parseContent reads the content of e raw from offset i, each {…}
// through the token stream, up to the matching end tag, and returns
// the offset just past it.
func (p *qparser) parseContent(e *Elem, i int) (int, error) {
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			e.Content = append(e.Content, TextLit(unescapeLit(text.String())))
			text.Reset()
		}
	}
	for {
		if i >= len(p.src) {
			return 0, p.errAt(i, "unterminated constructor <"+e.Label+">")
		}
		c := p.src[i]
		next := byte(0)
		if i+1 < len(p.src) {
			next = p.src[i+1]
		}
		switch {
		case c == '{' && next == '{', c == '}' && next == '}':
			text.WriteByte(c)
			i += 2
		case c == '{':
			flush()
			p.Seek(i + 1)
			for {
				item, err := p.parseExpr()
				if err != nil {
					return 0, err
				}
				e.Content = append(e.Content, item)
				if !p.Is(",") {
					break
				}
				p.Next()
			}
			if !p.Is("}") {
				return 0, p.Errorf("expected '}' in constructor content")
			}
			i = p.Pos() + 1
		case c == '}':
			return 0, p.errAt(i, "unescaped '}' in constructor content")
		case c == '<' && next == '/':
			flush()
			p.Seek(i + 2)
			if p.Word() != e.Label || p.Pos() != i+2 {
				return 0, p.Errorf("mismatched end tag, expected </%s>", e.Label)
			}
			p.Next()
			if !p.at('>') {
				return 0, p.Errorf("unterminated end tag </%s", e.Label)
			}
			return p.Pos() + 1, nil
		case c == '<':
			flush()
			p.Seek(i)
			child, end, err := p.parseConstructor()
			if err != nil {
				return 0, err
			}
			e.Content = append(e.Content, child)
			i = end
		default:
			text.WriteByte(c)
			i++
		}
	}
}

func unescapeLit(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	r := strings.NewReplacer(
		"&lt;", "<", "&gt;", ">", "&quot;", `"`, "&apos;", "'", "&amp;", "&",
	)
	return r.Replace(s)
}
