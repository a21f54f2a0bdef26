// Package xquery implements the declarative XML query language of the
// AXML framework: a FLWR (for/let/where/order by/return) subset of
// XQuery with element constructors, positional/named parameters, and
// doc("name") document references. Declarative services (paper §2.2)
// are implemented by such queries; their visibility to other peers is
// what enables the algebraic optimizations of §3.3.
//
// The grammar, in one place:
//
//	query  := ["param" $name {"," $name} ";"] expr
//	expr   := flwr | elem | xpath
//	flwr   := ("for" $v "in" expr {"," $v "in" expr} | "let" $v ":=" expr {"," $v ":=" expr})+
//	          ["where" expr] ["stable"] ["order" "by" expr ["ascending" | "descending"]]
//	          "return" expr
//	elem   := "<" name {name "=" ('"' text '"' | '"{' expr '}"')} ("/>" | ">" content "</" name ">")
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
// Beyond parsing and evaluation the package provides the two analyses
// the rewrite rules need: document-dependency extraction and the
// selection-pushdown decomposition q ≡ q1(σ(q2)) of Example 1.
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

import (
	"strings"

	"axml/internal/xpath"
)

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

// String renders the query back to parseable source text.
func (q *Query) String() string {
	var sb strings.Builder
	if len(q.Params) > 0 {
		sb.WriteString("param $")
		sb.WriteString(strings.Join(q.Params, ", $"))
		sb.WriteString("; ")
	}
	sb.WriteString(q.Body.String())
	return sb.String()
}

// Expr is a node of the query AST.
type Expr interface {
	String() string
}

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
	String() string
}

func (f ForClause) clauseVar() string { return f.Var }
func (l LetClause) clauseVar() string { return l.Var }

func (f ForClause) String() string {
	return "for $" + f.Var + " in " + f.Source.String()
}

func (l LetClause) String() string {
	return "let $" + l.Var + " := " + l.Source.String()
}

func (f *FLWR) String() string {
	var sb strings.Builder
	for i, c := range f.Clauses {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(c.String())
	}
	if f.Where != nil {
		sb.WriteString(" where ")
		sb.WriteString(f.Where.String())
	}
	if f.Order != nil {
		sb.WriteString(" order by ")
		sb.WriteString(f.Order.Key.String())
		if f.Order.Descending {
			sb.WriteString(" descending")
		}
	}
	sb.WriteString(" return ")
	sb.WriteString(f.Return.String())
	return sb.String()
}

// Path wraps an XPath expression used as a query expression. Doc
// references doc("name") inside it are the synthetic variables
// "#doc:name", the names listed in Docs.
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
		X:    &xpath.PathExpr{Filter: xpath.VarRef(docVarPrefix + name), Steps: steps},
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
		root, steps = x.Filter, x.Steps
	}
	if root != xpath.VarRef(docVarPrefix+p.Docs[0]) {
		return "", nil, false
	}
	return p.Docs[0], steps, true
}

func (p *Path) String() string { return renderPathWithDocs(p.X) }

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

func (e *Elem) String() string {
	var sb strings.Builder
	sb.WriteByte('<')
	sb.WriteString(e.Label)
	for _, a := range e.Attrs {
		sb.WriteByte(' ')
		sb.WriteString(a.Name)
		sb.WriteString(`="`)
		if a.Computed != nil {
			sb.WriteByte('{')
			sb.WriteString(a.Computed.String())
			sb.WriteByte('}')
		} else {
			sb.WriteString(escapeAttrLit(a.Literal))
		}
		sb.WriteByte('"')
	}
	if len(e.Content) == 0 {
		sb.WriteString("/>")
		return sb.String()
	}
	sb.WriteByte('>')
	for _, c := range e.Content {
		if t, ok := c.(TextLit); ok {
			sb.WriteString(escapeTextLit(string(t)))
			continue
		}
		sb.WriteByte('{')
		sb.WriteString(c.String())
		sb.WriteByte('}')
	}
	sb.WriteString("</")
	sb.WriteString(e.Label)
	sb.WriteByte('>')
	return sb.String()
}

// TextLit is literal text inside an element constructor.
type TextLit string

func (t TextLit) String() string { return string(t) }

// Seq is a comma sequence of expressions: { e1, e2 }.
type Seq struct{ Items []Expr }

func (s *Seq) String() string {
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		parts[i] = it.String()
	}
	return strings.Join(parts, ", ")
}

func escapeAttrLit(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, `"`, "&quot;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	return s
}

func escapeTextLit(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, "{", "{{")
	s = strings.ReplaceAll(s, "}", "}}")
	return s
}

// renderPathWithDocs renders an xpath AST, converting the synthetic
// "#doc:name" variables back to doc("name") calls so that rendered
// queries re-parse to the same AST.
func renderPathWithDocs(e xpath.Expr) string {
	return rewriteRender(e)
}

func rewriteRender(e xpath.Expr) string {
	switch v := e.(type) {
	case xpath.VarRef:
		if name, ok := strings.CutPrefix(string(v), docVarPrefix); ok {
			// Quote like xpath.StringLit, not %q: the lexer has no
			// backslash escapes, so Go-style \xNN renderings of odd
			// bytes would not survive a reparse.
			return "doc(" + xpath.StringLit(name).String() + ")"
		}
		return v.String()
	case *xpath.PathExpr:
		var sb strings.Builder
		if v.Filter != nil {
			sb.WriteString(rewriteRender(v.Filter))
			for _, s := range v.Steps {
				sb.WriteByte('/')
				sb.WriteString(renderStep(s))
			}
			return sb.String()
		}
		if v.Absolute && len(v.Steps) == 0 {
			return "(/)"
		}
		if v.Absolute {
			sb.WriteByte('/')
		}
		for i, s := range v.Steps {
			if i > 0 {
				sb.WriteByte('/')
			}
			sb.WriteString(renderStep(s))
		}
		return sb.String()
	case *xpath.BinaryExpr:
		return "(" + rewriteRender(v.L) + " " + v.Op + " " + rewriteRender(v.R) + ")"
	case *xpath.UnionExpr:
		parts := make([]string, len(v.Paths))
		for i, p := range v.Paths {
			parts[i] = rewriteRender(p)
		}
		return strings.Join(parts, " | ")
	case *xpath.NegExpr:
		return "-" + rewriteRender(v.X)
	case *xpath.FuncCall:
		parts := make([]string, len(v.Args))
		for i, a := range v.Args {
			parts[i] = rewriteRender(a)
		}
		return v.Name + "(" + strings.Join(parts, ", ") + ")"
	default:
		return e.String()
	}
}

func renderStep(s xpath.Step) string {
	// Steps contain predicates, which may contain doc() variables.
	if len(s.Preds) == 0 {
		return s.String()
	}
	base := xpath.Step{Axis: s.Axis, Test: s.Test}
	var sb strings.Builder
	sb.WriteString(base.String())
	for _, p := range s.Preds {
		sb.WriteByte('[')
		sb.WriteString(rewriteRender(p))
		sb.WriteByte(']')
	}
	return sb.String()
}
