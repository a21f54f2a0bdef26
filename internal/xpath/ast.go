package xpath

import (
	"fmt"
	"strings"
)

// Expr is a compiled XPath expression node.
type Expr interface {
	// String renders the expression back to (normalized) XPath
	// syntax, as Append writes it.
	String() string
}

// Axis enumerates the supported location-step axes.
type Axis uint8

const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisAttribute
	AxisFollowingSibling
	AxisPrecedingSibling
)

var axisNames = map[string]Axis{
	"child":              AxisChild,
	"descendant":         AxisDescendant,
	"descendant-or-self": AxisDescendantOrSelf,
	"self":               AxisSelf,
	"parent":             AxisParent,
	"ancestor":           AxisAncestor,
	"ancestor-or-self":   AxisAncestorOrSelf,
	"attribute":          AxisAttribute,
	"following-sibling":  AxisFollowingSibling,
	"preceding-sibling":  AxisPrecedingSibling,
}

func (a Axis) String() string {
	for name, ax := range axisNames {
		if ax == a {
			return name
		}
	}
	return fmt.Sprintf("axis(%d)", uint8(a))
}

// TestKind enumerates node tests.
type TestKind uint8

const (
	TestName    TestKind = iota // element (or attribute) by name
	TestWild                    // *
	TestText                    // text()
	TestNode                    // node()
	TestComment                 // comment()
)

// NodeTest is the node test of a location step.
type NodeTest struct {
	Kind TestKind
	Name string // for TestName
}

func (t NodeTest) String() string { return string(t.appendTo(nil)) }

func (t NodeTest) appendTo(b []byte) []byte {
	switch t.Kind {
	case TestName:
		return append(b, t.Name...)
	case TestWild:
		return append(b, '*')
	case TestText:
		return append(b, "text()"...)
	case TestNode:
		return append(b, "node()"...)
	case TestComment:
		return append(b, "comment()"...)
	}
	return append(b, '?')
}

// Step is one location step: axis::test[pred1][pred2]...
type Step struct {
	Axis  Axis
	Test  NodeTest
	Preds []Expr
}

func (s Step) String() string { return string(s.appendTo(nil)) }

func (s Step) appendTo(b []byte) []byte {
	switch s.Axis {
	case AxisChild:
		// default axis, no prefix
	case AxisAttribute:
		b = append(b, '@')
	case AxisSelf:
		if s.Test.Kind == TestNode && len(s.Preds) == 0 {
			return append(b, '.')
		}
		b = append(b, "self::"...)
	case AxisParent:
		if s.Test.Kind == TestNode && len(s.Preds) == 0 {
			return append(b, ".."...)
		}
		b = append(b, "parent::"...)
	default:
		b = append(b, s.Axis.String()...)
		b = append(b, "::"...)
	}
	return appendPreds(s.Test.appendTo(b), s.Preds)
}

// appendPreds appends predicates, each in brackets.
func appendPreds(b []byte, preds []Expr) []byte {
	for _, p := range preds {
		b = append(b, '[')
		b = Append(b, p)
		b = append(b, ']')
	}
	return b
}

// PathExpr is a location path, optionally rooted ('/...'), optionally
// starting from a primary filter expression (e.g. $v/a/b). A filter
// may carry predicates, XPath 1.0's FilterExpr (e.g. ($v/a | $v/b)[1]):
// they select from the filter's node-set, counting positions in
// document order, before any step applies.
type PathExpr struct {
	Absolute bool   // starts at the context node's root
	Filter   Expr   // optional start expression (variable, function call, ...)
	Preds    []Expr // the filter's predicates
	Steps    []Step
}

func (p *PathExpr) String() string { return render(p) }

// BinaryExpr is an operator application: or, and, =, !=, <, <=, >, >=,
// +, -, *, div, mod.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (b *BinaryExpr) String() string { return render(b) }

// UnionExpr is path1 | path2 | ...
type UnionExpr struct {
	Paths []Expr
}

func (u *UnionExpr) String() string { return render(u) }

// NegExpr is unary minus.
type NegExpr struct{ X Expr }

func (n *NegExpr) String() string { return render(n) }

// NumberLit is a numeric literal.
type NumberLit float64

// String renders as string() does, in plain decimal notation, never
// exponent form: the lexer has no 'e' syntax, so "1e+16" would not
// survive a reparse. The parser rejects literals that overflow, so a
// parsed NumberLit is always finite.
func (n NumberLit) String() string { return formatNumber(float64(n)) }

// StringLit is a string literal.
type StringLit string

func (s StringLit) String() string { return render(s) }

// VarRef is a $variable reference.
type VarRef string

func (v VarRef) String() string { return render(v) }

// DocVar is the name prefix of the variable a doc("name") call reads
// as, when NewParser is asked to: $#doc:name. No text can name that
// variable, as '#' cannot start a name, so Append writes every such
// variable back as doc("name").
const DocVar = "#doc:"

// FuncCall is a core-library (or registered extension) function call.
type FuncCall struct {
	Name string
	Args []Expr
}

func (f *FuncCall) String() string { return render(f) }

func render(e Expr) string { return string(Append(make([]byte, 0, 64), e)) }

// Append appends e to b as text that parses back to e, which is how a
// query travels to the peer that evaluates it and how the plan cache
// and the view matcher compare queries. An operator application is
// written (L op R); a doc variable as doc("name"); and a path's start,
// or a union's operand, in parentheses when it is not a primary — a
// union, a negation, or a path that would run on into the steps after
// it. The text grows in one buffer, so an operator chain renders in
// time linear in its length.
func Append(b []byte, e Expr) []byte {
	switch v := e.(type) {
	case *PathExpr:
		if v.Filter != nil {
			b = appendIn(b, v.Filter, true)
			b = appendPreds(b, v.Preds)
			for _, s := range v.Steps {
				b = append(b, '/')
				b = s.appendTo(b)
			}
			return b
		}
		if v.Absolute && len(v.Steps) == 0 {
			// A bare root in parentheses, or a name or '*' after it would
			// read as its first step.
			return append(b, "(/)"...)
		}
		if v.Absolute {
			b = append(b, '/')
		}
		for i, s := range v.Steps {
			if i > 0 {
				b = append(b, '/')
			}
			b = s.appendTo(b)
		}
		return b
	case *BinaryExpr:
		b = append(b, '(')
		b = Append(b, v.L)
		b = append(b, ' ')
		b = append(b, v.Op...)
		b = append(b, ' ')
		b = Append(b, v.R)
		return append(b, ')')
	case *UnionExpr:
		for i, p := range v.Paths {
			if i > 0 {
				b = append(b, " | "...)
			}
			b = appendIn(b, p, false)
		}
		return b
	case *NegExpr:
		return Append(append(b, '-'), v.X)
	case NumberLit:
		return append(b, formatNumber(float64(v))...)
	case StringLit:
		return appendQuoted(b, string(v))
	case VarRef:
		if name, ok := strings.CutPrefix(string(v), DocVar); ok {
			return append(appendQuoted(append(b, "doc("...), name), ')')
		}
		return append(append(b, '$'), v...)
	case *FuncCall:
		b = append(b, v.Name...)
		b = append(b, '(')
		for i, a := range v.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = Append(b, a)
		}
		return append(b, ')')
	}
	return append(b, e.String()...)
}

// appendQuoted appends s as a string literal: in double quotes unless
// it holds one. The lexer has no escapes, so a literal holds no quote
// of the kind that delimits it.
func appendQuoted(b []byte, s string) []byte {
	q := byte('"')
	if strings.Contains(s, `"`) {
		q = '\''
	}
	return append(append(append(b, q), s...), q)
}

// appendIn appends e where the grammar wants a path (a union's
// operand) or, with primary set, a primary (a path's start), in
// parentheses when e would not read back as one there: a union, a
// negation, or, as a path's start, a path with steps.
func appendIn(b []byte, e Expr, primary bool) []byte {
	paren := false
	switch v := e.(type) {
	case *UnionExpr, *NegExpr:
		paren = true
	case *PathExpr:
		paren = primary && (!v.Absolute || len(v.Steps) > 0)
	}
	if !paren {
		return Append(b, e)
	}
	return append(Append(append(b, '('), e), ')')
}

// PlainNameSteps reports whether every step is child::name without
// predicates — the paths that address a node by the labels of its
// ancestors alone, so what they select can be re-addressed by path
// (view matching) or found from a chain of node identifiers (delta
// maintenance from the change feed).
func PlainNameSteps(steps []Step) bool {
	for _, s := range steps {
		if s.Axis != AxisChild || s.Test.Kind != TestName || len(s.Preds) > 0 {
			return false
		}
	}
	return true
}

// DownwardOnly reports whether every path in e stays inside the subtree
// of the node it starts from: no parent, ancestor or sibling step, no
// absolute path and no filter predicate, in e or in any predicate or
// argument below it. Such an expression never asks where a node sits,
// so it is evaluated without Context.Trees; and a view body made of
// such paths reads nothing outside the subtree its variable is bound
// to. A filter predicate asks: it counts positions in document order.
func DownwardOnly(e Expr) bool {
	switch v := e.(type) {
	case *PathExpr:
		if v.Absolute || len(v.Preds) > 0 || v.Filter != nil && !DownwardOnly(v.Filter) {
			return false
		}
		for _, s := range v.Steps {
			switch s.Axis {
			case AxisChild, AxisDescendant, AxisDescendantOrSelf, AxisSelf, AxisAttribute:
			default:
				return false
			}
			for _, p := range s.Preds {
				if !DownwardOnly(p) {
					return false
				}
			}
		}
	case *BinaryExpr:
		return DownwardOnly(v.L) && DownwardOnly(v.R)
	case *UnionExpr:
		for _, p := range v.Paths {
			if !DownwardOnly(p) {
				return false
			}
		}
	case *NegExpr:
		return DownwardOnly(v.X)
	case *FuncCall:
		for _, a := range v.Args {
			if !DownwardOnly(a) {
				return false
			}
		}
	}
	return true
}

// Variables returns the set of variable names referenced by e, in
// first-occurrence order. The xquery compiler uses this for dependency
// analysis (which clauses a predicate may be pushed below).
func Variables(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case VarRef:
			if !seen[string(v)] {
				seen[string(v)] = true
				out = append(out, string(v))
			}
		case *PathExpr:
			if v.Filter != nil {
				walk(v.Filter)
			}
			for _, p := range v.Preds {
				walk(p)
			}
			for _, s := range v.Steps {
				for _, p := range s.Preds {
					walk(p)
				}
			}
		case *BinaryExpr:
			walk(v.L)
			walk(v.R)
		case *UnionExpr:
			for _, p := range v.Paths {
				walk(p)
			}
		case *NegExpr:
			walk(v.X)
		case *FuncCall:
			for _, a := range v.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}
