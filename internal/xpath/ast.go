package xpath

import (
	"fmt"
	"strings"
)

// Expr is a compiled XPath expression node.
type Expr interface {
	// String renders the expression back to (normalized) XPath syntax.
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

func (t NodeTest) String() string {
	switch t.Kind {
	case TestName:
		return t.Name
	case TestWild:
		return "*"
	case TestText:
		return "text()"
	case TestNode:
		return "node()"
	case TestComment:
		return "comment()"
	}
	return "?"
}

// Step is one location step: axis::test[pred1][pred2]...
type Step struct {
	Axis  Axis
	Test  NodeTest
	Preds []Expr
}

func (s Step) String() string {
	var sb strings.Builder
	switch s.Axis {
	case AxisChild:
		// default axis, no prefix
	case AxisAttribute:
		sb.WriteByte('@')
	case AxisSelf:
		if s.Test.Kind == TestNode && len(s.Preds) == 0 {
			return "."
		}
		sb.WriteString("self::")
	case AxisParent:
		if s.Test.Kind == TestNode && len(s.Preds) == 0 {
			return ".."
		}
		sb.WriteString("parent::")
	default:
		sb.WriteString(s.Axis.String())
		sb.WriteString("::")
	}
	sb.WriteString(s.Test.String())
	for _, p := range s.Preds {
		sb.WriteByte('[')
		sb.WriteString(p.String())
		sb.WriteByte(']')
	}
	return sb.String()
}

// PathExpr is a location path, optionally rooted ('/...'), optionally
// starting from a primary filter expression (e.g. $v/a/b).
type PathExpr struct {
	Absolute bool // starts at the context node's root
	Filter   Expr // optional start expression (variable, function call, ...)
	Steps    []Step
}

func (p *PathExpr) String() string {
	var sb strings.Builder
	if p.Filter != nil {
		sb.WriteString(p.Filter.String())
		for _, s := range p.Steps {
			sb.WriteByte('/')
			sb.WriteString(s.String())
		}
		return sb.String()
	}
	if p.Absolute && len(p.Steps) == 0 {
		// A bare root in parentheses, or a name or '*' after it would
		// read as its first step.
		return "(/)"
	}
	if p.Absolute {
		sb.WriteByte('/')
	}
	for i, s := range p.Steps {
		if i > 0 {
			sb.WriteByte('/')
		}
		sb.WriteString(s.String())
	}
	return sb.String()
}

// BinaryExpr is an operator application: or, and, =, !=, <, <=, >, >=,
// +, -, *, div, mod.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (b *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L.String(), b.Op, b.R.String())
}

// UnionExpr is path1 | path2 | ...
type UnionExpr struct {
	Paths []Expr
}

func (u *UnionExpr) String() string {
	parts := make([]string, len(u.Paths))
	for i, p := range u.Paths {
		parts[i] = p.String()
	}
	return strings.Join(parts, " | ")
}

// NegExpr is unary minus.
type NegExpr struct{ X Expr }

func (n *NegExpr) String() string { return "-" + n.X.String() }

// NumberLit is a numeric literal.
type NumberLit float64

// String renders as string() does, in plain decimal notation, never
// exponent form: the lexer has no 'e' syntax, so "1e+16" would not
// survive a reparse. The parser rejects literals that overflow, so a
// parsed NumberLit is always finite.
func (n NumberLit) String() string { return formatNumber(float64(n)) }

// StringLit is a string literal.
type StringLit string

func (s StringLit) String() string {
	if strings.Contains(string(s), `"`) {
		return "'" + string(s) + "'"
	}
	return `"` + string(s) + `"`
}

// VarRef is a $variable reference.
type VarRef string

func (v VarRef) String() string { return "$" + string(v) }

// FuncCall is a core-library (or registered extension) function call.
type FuncCall struct {
	Name string
	Args []Expr
}

func (f *FuncCall) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
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
// of the node it starts from: no parent, ancestor or sibling step and
// no absolute path, in e or in any predicate or argument below it. Such
// an expression never asks where a node sits, so it is evaluated
// without Context.Trees; and a view body made of such paths reads
// nothing outside the subtree its variable is bound to.
func DownwardOnly(e Expr) bool {
	switch v := e.(type) {
	case *PathExpr:
		if v.Absolute || v.Filter != nil && !DownwardOnly(v.Filter) {
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
