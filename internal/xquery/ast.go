// Package xquery implements the declarative XML query language of the
// AXML framework: a FLWR (for/let/where/order by/return) subset of
// XQuery with element constructors, positional/named parameters, and
// doc("name") document references. Declarative services (paper §2.2)
// are implemented by such queries; their visibility to other peers is
// what enables the algebraic optimizations of §3.3.
//
// The grammar, in one place:
//
//	stmt   := query | "delete" ["node"] query | "replace" ["node"] query "with" xml
//	          | "declare" "view" literal ["at" literal] "as" query
//	          | "declare" "document" literal "as" xml
//	query  := ["param" $name {"," $name} ";"] expr
//	expr   := flwr | elem | xpath
//	flwr   := ("for" $v "in" expr {"," $v "in" expr} | "let" $v ":=" expr {"," $v ":=" expr})+
//	          ["where" expr] ["stable"] ["order" "by" expr ["ascending" | "descending"]]
//	          "return" expr
//	elem   := "<" name {name "=" ('"' text '"' | '"{' expr '}"')} ("/>" | ">" content "</" name ">")
//
// ParseStatement reads any stmt — a query, an update (the W3C XQuery
// Update Facility's delete and replace) or a declaration — and Parse a
// query only. An xml is one XML tree, read raw to the end of the text.
// A stmt's keywords match in any case, and they start an update or a
// declaration only where no query could go on (StatementKind).
//
// Its tokens are XPath's plus { } := and ;, read by one lexer, the
// xpath package's (xpath.Parser), which also parses each xpath
// expression where it starts. Whitespace and (: … :) comments, which
// nest, separate tokens; a comment is never read inside a string
// literal, an attribute value or element content, which are text.
// Element content is read raw up to "{", "<" or "</name>"; "{{" and "}}"
// stand for braces, and a "{…}" holds expressions separated by commas.
// An attribute value is a literal unless it is all one "{expr}".
// doc() takes one string literal: doc("name") reads as the variable
// $#doc:name, and Path.Docs lists the names. Keywords are not reserved:
// a keyword ends an xpath expression only where the XPath grammar
// cannot continue, so `$i/return` and `@where` are paths, while
// `for $i in a return b` ends a's path at return. for or let at the
// start of an expression begins a FLWR.
//
// Rendering is xpath's too: a Query's String writes its clauses and
// constructors into one buffer, and xpath.Append writes each path into
// the same buffer, $#doc:name as doc("name"). The text parses back to
// the same query, which is what a delegated query travels as.
//
// Beyond parsing and evaluation the package provides the analyses the
// rewrite rules need: document-dependency extraction (DocRefs) and the
// selection analysis (Select), which reads a FLWR as the selection
// `for $v in doc("d")/path where C1 and … and Cn return $v` of Example
// 1 — its first for clause and that clause's source, its where's
// conjuncts, whether it returns $v. Every reader of that shape goes
// through it: the selection-pushdown decomposition q ≡ q1(σ(q2))
// (Decompose), delta maintenance (NewDeltaFor) and the point lookup
// below, and outside the package view matching and the plan-cache key
// (package view) and the estimator's selectivity (package opt).
//
// A point lookup is answered from a value index when the environment
// has one (Env.Index; a peer keeps one per published root and shape).
// The rule: a FLWR whose first for clause binds $v to doc(d)/a/b… (child
// steps by name, no predicate), whose variable no later clause rebinds,
// and whose where is $v/k… = "literal" — or has it as an operand of an
// and — takes as $v's candidates only the nodes whose key k… (child
// steps by name, the last one an attribute step by name too) has that
// string-value. The where clause still runs on each of them, so the
// index only narrows: the rows and their order are the scan's. Any other
// comparison (!=, <, a number literal, a predicate, //, a reverse axis)
// scans, because XPath's numeric and existential rules make a map from
// strings inexact there.
package xquery

import "axml/internal/xpath"

// Query is a parsed query: an optional parameter list and a body
// expression. A query with parameters is the implementation of a
// declarative service; parameters are bound positionally at call time.
type Query struct {
	// Params are declared parameter names, e.g. ["cat", "max"] for
	// "param $cat, $max;". They bind in order to the call arguments.
	Params []string
	Body   Expr
}

// Arity returns the number of parameters (the n of τin ∈ Θⁿ).
func (q *Query) Arity() int { return len(q.Params) }

// String renders the query back to parseable source text: the text a
// delegated query travels as, and the plan cache's key. Every node
// writes into one buffer, its XPath through xpath.Append.
func (q *Query) String() string { return string(q.appendTo(make([]byte, 0, 128))) }

func (q *Query) appendTo(b []byte) []byte {
	if len(q.Params) > 0 {
		b = append(b, "param"...)
		for i, p := range q.Params {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(b, " $"...), p...)
		}
		b = append(b, "; "...)
	}
	return q.Body.appendTo(b)
}

// Expr is a node of the query AST.
type Expr interface {
	String() string
	// appendTo appends the text String returns.
	appendTo(b []byte) []byte
}

func render(e Expr) string { return string(e.appendTo(make([]byte, 0, 64))) }

// ForClause binds Var to each node of the Source sequence in turn.
type ForClause struct {
	Var    string
	Source Expr
}

// LetClause binds Var to the whole value of Source.
type LetClause struct {
	Var    string
	Source Expr
}

// OrderSpec sorts the binding tuples by Key before return.
type OrderSpec struct {
	Key        Expr
	Descending bool
}

// FLWR is a for/let/where/order by/return expression. Fors and Lets
// are applied in declaration order (they may interleave; Clauses keeps
// the order while Fors/Lets give typed access).
type FLWR struct {
	Clauses []Clause
	Where   Expr // nil when absent
	Order   *OrderSpec
	Return  Expr
}

// Clause is either a ForClause or a LetClause.
type Clause interface {
	clauseVar() string
	appendTo(b []byte) []byte
}

func (f ForClause) clauseVar() string { return f.Var }
func (l LetClause) clauseVar() string { return l.Var }

func (f ForClause) appendTo(b []byte) []byte {
	b = append(append(b, "for $"...), f.Var...)
	return f.Source.appendTo(append(b, " in "...))
}

func (l LetClause) appendTo(b []byte) []byte {
	b = append(append(b, "let $"...), l.Var...)
	return l.Source.appendTo(append(b, " := "...))
}

func (f *FLWR) String() string { return render(f) }

func (f *FLWR) appendTo(b []byte) []byte {
	for i, c := range f.Clauses {
		if i > 0 {
			b = append(b, ' ')
		}
		b = c.appendTo(b)
	}
	if f.Where != nil {
		b = f.Where.appendTo(append(b, " where "...))
	}
	if f.Order != nil {
		b = f.Order.Key.appendTo(append(b, " order by "...))
		if f.Order.Descending {
			b = append(b, " descending"...)
		}
	}
	return f.Return.appendTo(append(b, " return "...))
}

// Path wraps an XPath expression used as a query expression. Doc
// references doc("name") inside it are the variables $#doc:name
// (xpath.DocVar), the names listed in Docs.
type Path struct {
	X    xpath.Expr
	Docs []string // document names referenced via doc()
}

// DocPath constructs a path rooted at doc("name") with the given
// location steps — the programmatic form of what the parser produces
// for `doc("name")/step/...`. Query rewriters (view matching) use it to
// re-root a query on a different document.
func DocPath(name string, steps ...xpath.Step) *Path {
	return &Path{
		X:    &xpath.PathExpr{Filter: xpath.VarRef(xpath.DocVar + name), Steps: steps},
		Docs: []string{name},
	}
}

// DocSteps is the inverse of DocPath: the doc() root and the location
// steps of a path of the form doc("name")/step/…; ok is false for any
// other form.
func (p *Path) DocSteps() (doc string, steps []xpath.Step, ok bool) {
	if len(p.Docs) != 1 {
		return "", nil, false
	}
	var root xpath.Expr
	switch x := p.X.(type) {
	case xpath.VarRef:
		root = x
	case *xpath.PathExpr:
		if len(x.Preds) > 0 {
			return "", nil, false
		}
		root, steps = x.Filter, x.Steps
	}
	if root != xpath.VarRef(xpath.DocVar+p.Docs[0]) {
		return "", nil, false
	}
	return p.Docs[0], steps, true
}

func (p *Path) String() string { return render(p) }

func (p *Path) appendTo(b []byte) []byte { return xpath.Append(b, p.X) }

// Elem is an element constructor <Label attr...>content</Label>.
// Attribute values may contain one "{expr}" template section.
type Elem struct {
	Label   string
	Attrs   []AttrTemplate
	Content []Expr
}

// AttrTemplate is a constructor attribute: either a literal value or a
// computed one (Value holds the expression when Computed is true).
type AttrTemplate struct {
	Name     string
	Literal  string
	Computed Expr // non-nil means value is computed
}

func (e *Elem) String() string { return render(e) }

func (e *Elem) appendTo(b []byte) []byte {
	b = append(append(b, '<'), e.Label...)
	for _, a := range e.Attrs {
		b = append(append(append(b, ' '), a.Name...), `="`...)
		if a.Computed != nil {
			b = append(a.Computed.appendTo(append(b, '{')), '}')
		} else {
			b = appendEscaped(b, a.Literal, false)
		}
		b = append(b, '"')
	}
	if len(e.Content) == 0 {
		return append(b, "/>"...)
	}
	b = append(b, '>')
	for _, c := range e.Content {
		if t, ok := c.(TextLit); ok {
			b = appendEscaped(b, string(t), true)
			continue
		}
		b = append(c.appendTo(append(b, '{')), '}')
	}
	return append(append(append(b, "</"...), e.Label...), '>')
}

// TextLit is literal text inside an element constructor.
type TextLit string

func (t TextLit) String() string { return string(t) }

func (t TextLit) appendTo(b []byte) []byte { return append(b, t...) }

// appendEscaped appends s as the parser reads it back: an attribute
// literal with & " < as references, or element content with & < as
// references and its braces doubled.
func appendEscaped(b []byte, s string, content bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '&':
			b = append(b, "&amp;"...)
		case c == '<':
			b = append(b, "&lt;"...)
		case c == '"' && !content:
			b = append(b, "&quot;"...)
		case (c == '{' || c == '}') && content:
			b = append(b, c, c)
		default:
			b = append(b, c)
		}
	}
	return b
}
