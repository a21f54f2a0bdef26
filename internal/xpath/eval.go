package xpath

import (
	"fmt"

	"axml/internal/xmltree"
)

// Compiled is an executable XPath expression.
type Compiled struct {
	Source string
	Root   Expr
}

func (c *Compiled) String() string { return c.Root.String() }

// Context carries the dynamic evaluation state.
type Context struct {
	// Node is the context node.
	Node *xmltree.Node
	// Pos and Size are the 1-based context position and size, used by
	// position() and last(). Zero values mean "1 of 1".
	Pos, Size int
	// Vars binds $variables. May be nil.
	Vars *Scope
}

// Scope is an immutable chain of variable bindings; the nil Scope is
// empty. Bind puts a new head in front of a shared tail, so extending a
// scope never copies it and never disturbs whoever holds the tail.
type Scope struct {
	name string
	val  Value
	next *Scope
}

// Bind returns the scope extended by name = v; an inner binding
// shadows an outer one of the same name.
func (s *Scope) Bind(name string, v Value) *Scope {
	return &Scope{name: name, val: v, next: s}
}

// Lookup returns the innermost binding of name.
func (s *Scope) Lookup(name string) (Value, bool) {
	for ; s != nil; s = s.next {
		if s.name == name {
			return s.val, true
		}
	}
	return nil, false
}

func (c *Context) position() float64 {
	if c.Pos == 0 {
		return 1
	}
	return float64(c.Pos)
}

func (c *Context) last() float64 {
	if c.Size == 0 {
		return 1
	}
	return float64(c.Size)
}

// EvalError reports a dynamic evaluation failure.
type EvalError struct {
	Expr string
	Msg  string
}

func (e *EvalError) Error() string { return fmt.Sprintf("xpath: eval %q: %s", e.Expr, e.Msg) }

// Eval evaluates a parsed expression in the given context.
func Eval(e Expr, ctx *Context) (Value, error) { return evalExpr(e, ctx) }

// Eval evaluates the expression in the given context.
func (c *Compiled) Eval(ctx *Context) (Value, error) {
	return evalExpr(c.Root, ctx)
}

// Select evaluates the expression and coerces the result to a node-set.
// Non-node results yield an error.
func (c *Compiled) Select(n *xmltree.Node) ([]*xmltree.Node, error) {
	v, err := c.Eval(&Context{Node: n})
	if err != nil {
		return nil, err
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, &EvalError{Expr: c.Source, Msg: fmt.Sprintf("expected node-set, got %T", v)}
	}
	return ns, nil
}

// EvalBool evaluates and coerces to boolean.
func (c *Compiled) EvalBool(ctx *Context) (bool, error) {
	v, err := c.Eval(ctx)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}

// EvalString evaluates and coerces to string.
func (c *Compiled) EvalString(ctx *Context) (string, error) {
	v, err := c.Eval(ctx)
	if err != nil {
		return "", err
	}
	return v.Str(), nil
}

// EvalNumber evaluates and coerces to number.
func (c *Compiled) EvalNumber(ctx *Context) (float64, error) {
	v, err := c.Eval(ctx)
	if err != nil {
		return 0, err
	}
	return v.Number(), nil
}

func evalExpr(e Expr, ctx *Context) (Value, error) {
	switch v := e.(type) {
	case NumberLit:
		return Number(v), nil
	case StringLit:
		return String(v), nil
	case VarRef:
		val, ok := ctx.Vars.Lookup(string(v))
		if !ok {
			return nil, &EvalError{Expr: v.String(), Msg: "unbound variable"}
		}
		return val, nil
	case *NegExpr:
		x, err := evalExpr(v.X, ctx)
		if err != nil {
			return nil, err
		}
		return Number(-x.Number()), nil
	case *BinaryExpr:
		return evalBinary(v, ctx)
	case *UnionExpr:
		var out NodeSet
		seen := map[*xmltree.Node]bool{}
		for _, pe := range v.Paths {
			val, err := evalExpr(pe, ctx)
			if err != nil {
				return nil, err
			}
			ns, ok := val.(NodeSet)
			if !ok {
				return nil, &EvalError{Expr: pe.String(), Msg: "union operand is not a node-set"}
			}
			for _, n := range ns {
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
		return out, nil
	case *FuncCall:
		return evalFunc(v, ctx)
	case *PathExpr:
		return evalPath(v, ctx)
	default:
		return nil, &EvalError{Expr: fmt.Sprintf("%T", e), Msg: "unknown expression type"}
	}
}

func evalBinary(b *BinaryExpr, ctx *Context) (Value, error) {
	switch b.Op {
	case "or":
		l, err := evalExpr(b.L, ctx)
		if err != nil {
			return nil, err
		}
		if l.Bool() {
			return Boolean(true), nil
		}
		r, err := evalExpr(b.R, ctx)
		if err != nil {
			return nil, err
		}
		return Boolean(r.Bool()), nil
	case "and":
		l, err := evalExpr(b.L, ctx)
		if err != nil {
			return nil, err
		}
		if !l.Bool() {
			return Boolean(false), nil
		}
		r, err := evalExpr(b.R, ctx)
		if err != nil {
			return nil, err
		}
		return Boolean(r.Bool()), nil
	case "=", "!=", "<", "<=", ">", ">=":
		l, err := evalOperand(b.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := evalOperand(b.R, ctx)
		if err != nil {
			return nil, err
		}
		return Boolean(compare(b.Op, l, r)), nil
	}
	l, err := evalExpr(b.L, ctx)
	if err != nil {
		return nil, err
	}
	r, err := evalExpr(b.R, ctx)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case "+":
		return Number(l.Number() + r.Number()), nil
	case "-":
		return Number(l.Number() - r.Number()), nil
	case "*":
		return Number(l.Number() * r.Number()), nil
	case "div":
		return Number(l.Number() / r.Number()), nil
	case "mod":
		return Number(modXPath(l.Number(), r.Number())), nil
	default:
		return nil, &EvalError{Expr: b.Op, Msg: "unknown operator"}
	}
}

// evalOperand evaluates one side of a comparison. Literals become
// operands directly, without a trip through the Value interface.
func evalOperand(e Expr, ctx *Context) (operand, error) {
	switch v := e.(type) {
	case StringLit:
		return operand{kind: opString, s: string(v)}, nil
	case NumberLit:
		return operand{kind: opNumber, f: float64(v)}, nil
	}
	v, err := evalExpr(e, ctx)
	if err != nil {
		return operand{}, err
	}
	return operandOf(v), nil
}

func modXPath(a, b float64) float64 {
	// XPath mod follows the sign of the dividend (like Go's math.Mod).
	q := a - b*trunc(a/b)
	return q
}

func trunc(f float64) float64 {
	if f < 0 {
		return float64(int64(f))
	}
	return float64(int64(f))
}

func evalPath(p *PathExpr, ctx *Context) (Value, error) {
	var current NodeSet     // the start node-set, or
	var start *xmltree.Node // the single start node
	switch {
	case p.Filter != nil:
		v, err := evalExpr(p.Filter, ctx)
		if err != nil {
			return nil, err
		}
		if len(p.Steps) == 0 {
			return v, nil
		}
		ns, ok := v.(NodeSet)
		if !ok {
			return nil, &EvalError{Expr: p.Filter.String(), Msg: "path start is not a node-set"}
		}
		current = ns
	case p.Absolute:
		if ctx.Node == nil {
			return nil, &EvalError{Expr: p.String(), Msg: "no context node for absolute path"}
		}
		// XPath absolute paths start at the document node above the root
		// element; the tree model has no such node, so synthesize one.
		// Its Children slice references (does not adopt) the root.
		root := ctx.Node.Root()
		start = &xmltree.Node{
			Kind:     xmltree.ElementNode,
			Label:    "#document",
			Children: []*xmltree.Node{root},
		}
	default:
		if ctx.Node == nil {
			return nil, &EvalError{Expr: p.String(), Msg: "no context node for relative path"}
		}
		start = ctx.Node
	}
	steps := p.Steps
	if start != nil {
		if len(steps) == 0 {
			return NodeSet{start}, nil
		}
		// applyStep neither keeps nor returns its input, so the one-node
		// start set lives on the stack.
		one := [1]*xmltree.Node{start}
		next, err := applyStep(&steps[0], one[:], ctx)
		if err != nil {
			return nil, err
		}
		current, steps = next, steps[1:]
	}
	for i := range steps {
		next, err := applyStep(&steps[i], current, ctx)
		if err != nil {
			return nil, err
		}
		current = next
	}
	return current, nil
}

// applyStep maps a node-set through one location step, preserving
// first-visit order and removing duplicates. The result is always a
// fresh slice; input is only read.
func applyStep(st *Step, input NodeSet, ctx *Context) (NodeSet, error) {
	// The input is duplicate-free, so two of its nodes can only reach the
	// same node along an axis that leaves their own subtree boundary:
	// children, attributes and self of distinct nodes are disjoint, and a
	// single node never reaches anything twice.
	var seen map[*xmltree.Node]bool
	if len(input) > 1 && st.Axis != AxisChild && st.Axis != AxisAttribute && st.Axis != AxisSelf {
		seen = map[*xmltree.Node]bool{}
	}
	size := len(input)
	if size == 1 && st.Axis == AxisChild {
		size = len(input[0].Children)
	}
	out := make(NodeSet, 0, size)
	for _, n := range input {
		from := len(out)
		out = appendAxis(out, st.Axis, st.Test, n)
		if len(st.Preds) > 0 {
			// Positions count within one input node's matches.
			kept, err := applyPredicates(st.Preds, out[from:], ctx)
			if err != nil {
				return nil, err
			}
			out = out[:from+len(kept)]
		}
		if seen != nil {
			fresh := out[:from]
			for _, c := range out[from:] {
				if !seen[c] {
					seen[c] = true
					fresh = append(fresh, c)
				}
			}
			out = fresh
		}
	}
	return out, nil
}

// applyPredicates filters nodes in place through each predicate in
// turn; the caller must own the slice.
func applyPredicates(preds []Expr, nodes []*xmltree.Node, outer *Context) ([]*xmltree.Node, error) {
	pctx := Context{Vars: outer.Vars}
	for _, pred := range preds {
		kept := nodes[:0]
		pctx.Size = len(nodes)
		for i, n := range nodes {
			pctx.Node, pctx.Pos = n, i+1
			v, err := evalExpr(pred, &pctx)
			if err != nil {
				return nil, err
			}
			// A numeric predicate selects by position.
			if num, ok := v.(Number); ok {
				if float64(i+1) == float64(num) {
					kept = append(kept, n)
				}
				continue
			}
			if v.Bool() {
				kept = append(kept, n)
			}
		}
		nodes = kept
	}
	return nodes, nil
}

// appendAxis appends the nodes on the given axis from n that pass the
// node test, in document order (reverse axes included — see package
// comment).
func appendAxis(out []*xmltree.Node, axis Axis, t NodeTest, n *xmltree.Node) []*xmltree.Node {
	switch axis {
	case AxisChild:
		for _, c := range n.Children {
			if testMatches(t, c) {
				out = append(out, c)
			}
		}
	case AxisDescendant:
		for _, c := range n.Children {
			out = appendSubtree(out, t, c)
		}
	case AxisDescendantOrSelf:
		out = appendSubtree(out, t, n)
	case AxisSelf:
		if testMatches(t, n) {
			out = append(out, n)
		}
	case AxisParent:
		if n.Parent != nil && testMatches(t, n.Parent) {
			out = append(out, n.Parent)
		}
	case AxisAncestor, AxisAncestorOrSelf:
		p := n
		if axis == AxisAncestor {
			p = n.Parent
		}
		for ; p != nil; p = p.Parent {
			if testMatches(t, p) {
				out = append(out, p)
			}
		}
	case AxisAttribute:
		if n.Kind != xmltree.ElementNode {
			break
		}
		// Attributes are not nodes of the stored tree: synthesize one
		// only for an attribute the test selects.
		for _, a := range n.Attrs {
			if t.Kind == TestNode || t.Kind == TestWild || (t.Kind == TestName && a.Name == t.Name) {
				out = append(out, &xmltree.Node{
					Kind:   xmltree.AttrNode,
					Label:  a.Name,
					Text:   a.Value,
					Parent: n,
				})
			}
		}
	case AxisFollowingSibling, AxisPrecedingSibling:
		if n.Parent == nil {
			break
		}
		sibs := n.Parent.Children
		for i, s := range sibs {
			if s == n {
				if axis == AxisFollowingSibling {
					sibs = sibs[i+1:]
				} else {
					sibs = sibs[:i]
				}
				for _, c := range sibs {
					if testMatches(t, c) {
						out = append(out, c)
					}
				}
				break
			}
		}
	}
	return out
}

// appendSubtree appends n and its descendants that pass the test, in
// document order.
func appendSubtree(out []*xmltree.Node, t NodeTest, n *xmltree.Node) []*xmltree.Node {
	if testMatches(t, n) {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = appendSubtree(out, t, c)
	}
	return out
}

// testMatches applies a node test to a stored node (never an
// attribute: the attribute axis tests names before it makes nodes).
func testMatches(t NodeTest, n *xmltree.Node) bool {
	switch t.Kind {
	case TestNode:
		return true
	case TestText:
		return n.Kind == xmltree.TextNode
	case TestComment:
		return n.Kind == xmltree.CommentNode
	case TestWild:
		return n.Kind == xmltree.ElementNode
	case TestName:
		return n.Kind == xmltree.ElementNode && n.Label == t.Name
	}
	return false
}
