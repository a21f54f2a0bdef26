package xquery

import (
	"fmt"
	"strings"

	"axml/internal/xmltree"
	"axml/internal/xpath"
)

// Statement is one parsed stmt of the package grammar.
type Statement struct {
	Kind  string        // "query", "delete", "replace", "view" or "document"
	Query *Query        // the query, an update's target, or a view's definition
	Name  string        // the declared view or document
	At    string        // the peer a view is declared at; "" leaves it to the session
	With  *xmltree.Node // the tree after with or as: replace's payload, or the declared document
}

// StatementKind reads the kind of statement src is from its leading
// tokens alone, as ParseStatement does before it parses the rest.
func StatementKind(src string) string {
	p := newParser(src)
	return p.lead()
}

// ParseStatement parses a statement of any kind. Its errors are
// *xpath.SyntaxError, with offsets into src.
func ParseStatement(src string) (Statement, error) {
	p := newParser(src)
	st := Statement{Kind: p.lead()}
	var err error
	if st.Kind == "view" || st.Kind == "document" {
		if st.Name, err = p.literal(); err == nil && st.Kind == "view" && p.keyword("at") {
			st.At, err = p.literal()
		}
	}
	switch {
	case err != nil:
	case st.Kind == "document":
		st.With, err = p.tree("as")
	case st.Kind == "view" && !p.keyword("as"):
		err = p.Errorf("expected 'as'")
	default:
		if st.Query, err = p.parseQuery(); err == nil && st.Kind == "replace" {
			st.With, err = p.tree("with")
		}
	}
	if end := p.Pos(); err == nil && st.With == nil && end < len(src) {
		err = p.errAt(end, fmt.Sprintf("trailing input %.30q", src[end:]))
	}
	if err != nil {
		return Statement{}, err
	}
	return st, nil
}

// String renders the statement as text that parses back to it.
func (s Statement) String() string {
	var b []byte
	switch s.Kind {
	case "delete", "replace":
		b = append([]byte(s.Kind), " node "...)
	case "view", "document":
		b = xpath.Append([]byte("declare "+s.Kind+" "), xpath.StringLit(s.Name))
		if s.At != "" {
			b = xpath.Append(append(b, " at "...), xpath.StringLit(s.At))
		}
		b = append(b, " as "...)
	}
	if s.Query != nil {
		b = s.Query.appendTo(b)
	}
	if s.Kind == "replace" {
		b = append(b, " with "...)
	}
	if s.With != nil {
		b = xmltree.Append(b, s.With)
	}
	return string(b)
}

// lead reads the keywords a statement other than a query starts with
// and returns its kind; at a query it reads nothing. Delete or replace
// starts an update before $, ( or a name other than and, or, div and
// mod, and declare a declaration before view or document: no query goes
// on from a name that way but a call, and no function delete or replace
// exists.
func (p *qparser) lead() string {
	kind := strings.ToLower(p.Word())
	if kind != "delete" && kind != "replace" && kind != "declare" {
		return "query"
	}
	p.Next()
	switch w := strings.ToLower(p.Word()); {
	case kind == "declare" && (w == "view" || w == "document"):
		p.Next()
		return w
	case kind != "declare" && (p.Is("$") || p.Is("(") || w != "" && w != "and" && w != "or" && w != "div" && w != "mod"):
		if w == "node" {
			p.Next()
		}
		return kind
	}
	p.Seek(0)
	return "query"
}

// keyword reads the word w, in any case, if it is the current token.
func (p *qparser) keyword(w string) bool {
	ok := strings.EqualFold(p.Word(), w)
	if ok {
		p.Next()
	}
	return ok
}

// literal reads a declaration's quoted name.
func (p *qparser) literal() (string, error) {
	x, _, err := p.Expr()
	if lit, ok := x.(xpath.StringLit); ok || err != nil {
		return string(lit), err
	}
	return "", p.Errorf("expected a name in quotes")
}

// tree reads the keyword kw, then the rest of the text as one XML tree.
func (p *qparser) tree(kw string) (*xmltree.Node, error) {
	if !p.keyword(kw) {
		return nil, p.Errorf("expected '%s'", kw)
	}
	t, err := xmltree.Parse(p.src[p.Pos():])
	if err != nil {
		return nil, p.errAt(p.Pos(), err.Error())
	}
	return t, nil
}
