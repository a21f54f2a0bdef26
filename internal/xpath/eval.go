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
	// Trees names the trees the evaluation reads. Upward and sideways
	// steps from a node, and an absolute path, reach only the trees
	// named here. Nil names the context node's own tree: the one
	// rooted at Node.
	Trees *Trees
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
func Eval(e Expr, ctx *Context) (Value, error) {
	if ctx.Trees == nil && ctx.Node != nil && !DownwardOnly(e) {
		c := *ctx
		c.Trees = NewTrees(ctx.Node)
		ctx = &c
	}
	return evalExpr(e, ctx)
}

// Eval evaluates the expression in the given context.
func (c *Compiled) Eval(ctx *Context) (Value, error) { return Eval(c.Root, ctx) }

// Select evaluates the expression from n, in n's tree, and coerces the
// result to a node-set. Non-node results yield an error.
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
		// A path against a string or number literal — the where clause
		// of a selection, $i/@id = "K" — is compared while its last step
		// is walked, so a candidate that fails it allocates nothing.
		// Every other comparison collects both operands first. Either
		// way the result, the errors and their order are the same.
		if p, lit, litLeft, ok := streamedComparison(b); ok {
			return comparePath(b.Op, p, lit, litLeft, ctx)
		}
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
	if lit, ok := literalOperand(e); ok {
		return lit, nil
	}
	v, err := evalExpr(e, ctx)
	if err != nil {
		return operand{}, err
	}
	return operandOf(v), nil
}

// literalOperand is a string or number literal as an operand.
func literalOperand(e Expr) (operand, bool) {
	switch v := e.(type) {
	case StringLit:
		return operand{kind: opString, s: string(v)}, true
	case NumberLit:
		return operand{kind: opNumber, f: float64(v)}, true
	}
	return operand{}, false
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
	if p.Filter != nil && len(p.Steps) == 0 && len(p.Preds) == 0 {
		return evalExpr(p.Filter, ctx)
	}
	current, start, err := walkPath(p, p.Steps, ctx)
	if err != nil {
		return nil, err
	}
	if start != nil {
		return NodeSet{start}, nil
	}
	return current, nil
}

// walkPath evaluates where p starts and then steps, a prefix of
// p.Steps. A path that starts at one node and applies no step reaches
// that node alone; it comes back as start, with a nil set, so the
// caller decides whether it needs a set for it.
func walkPath(p *PathExpr, steps []Step, ctx *Context) (current NodeSet, start *xmltree.Node, err error) {
	switch {
	case p.Filter != nil:
		v, err := evalExpr(p.Filter, ctx)
		if err != nil {
			return nil, nil, err
		}
		ns, ok := v.(NodeSet)
		if !ok {
			return nil, nil, &EvalError{Expr: p.Filter.String(), Msg: "path start is not a node-set"}
		}
		current = ns
		if len(p.Preds) > 0 {
			if current, err = applyPredicates(p.Preds, inDocOrder(ns, ctx.Trees), ctx); err != nil {
				return nil, nil, err
			}
		}
	case p.Absolute:
		if ctx.Node == nil {
			return nil, nil, &EvalError{Expr: p.String(), Msg: "no context node for absolute path"}
		}
		// XPath absolute paths start at the document node above the root
		// element; the tree model has no such node, so synthesize one.
		// Its Children slice references the root.
		root := ctx.Trees.rootOf(ctx.Node)
		start = &xmltree.Node{
			Kind:     xmltree.ElementNode,
			Label:    "#document",
			Children: []*xmltree.Node{root},
		}
	default:
		if ctx.Node == nil {
			return nil, nil, &EvalError{Expr: p.String(), Msg: "no context node for relative path"}
		}
		start = ctx.Node
	}
	if start != nil {
		if len(steps) == 0 {
			return nil, start, nil
		}
		// applyStep neither keeps nor returns its input, so the one-node
		// start set lives on the stack.
		one := [1]*xmltree.Node{start}
		next, err := applyStep(&steps[0], one[:], ctx)
		if err != nil {
			return nil, nil, err
		}
		current, steps = next, steps[1:]
	}
	for i := range steps {
		next, err := applyStep(&steps[i], current, ctx)
		if err != nil {
			return nil, nil, err
		}
		current = next
	}
	return current, nil, nil
}

// streamedComparison recognizes a comparison comparePath can take: a
// path of at least one step whose last step is a child, attribute or
// self step without predicates, against a string or number literal on
// either side.
func streamedComparison(b *BinaryExpr) (p *PathExpr, lit operand, litLeft, ok bool) {
	if lit, ok = literalOperand(b.R); ok {
		p, _ = b.L.(*PathExpr)
	} else if lit, ok = literalOperand(b.L); ok {
		p, _ = b.R.(*PathExpr)
		litLeft = true
	}
	if p == nil || len(p.Steps) == 0 {
		return nil, lit, false, false
	}
	last := &p.Steps[len(p.Steps)-1]
	ok = len(last.Preds) == 0 && (last.Axis == AxisChild || last.Axis == AxisAttribute || last.Axis == AxisSelf)
	return p, lit, litLeft, ok
}

// EqualsString recognizes the comparison comparePath takes when it is
// path = "literal", in either operand order: p is the path, s the
// literal. XPath holds it exactly when a node the path reaches has s
// as its string-value, so a map from string-values can answer it.
func EqualsString(b *BinaryExpr) (p *PathExpr, s string, ok bool) {
	p, lit, _, ok := streamedComparison(b)
	if !ok || b.Op != "=" || lit.kind != opString {
		return nil, "", false
	}
	return p, lit.s, true
}

// comparePath is the comparison of path p with a literal, the literal
// on the left when litLeft is set, without collecting the path's last
// step: the prefix is evaluated as evalPath would, and every node the
// last step reaches is compared as it is reached — an attribute by its
// value, with no node made for it — until the first match. That is
// XPath's existential rule: the step's nodes are disjoint per input
// node, so the order they are reached in cannot change the answer.
func comparePath(op string, p *PathExpr, lit operand, litLeft bool, ctx *Context) (Value, error) {
	last := &p.Steps[len(p.Steps)-1]
	current, start, err := walkPath(p, p.Steps[:len(p.Steps)-1], ctx)
	if err != nil {
		return nil, err
	}
	if start != nil {
		return Boolean(stepCompares(op, last, start, lit, litLeft)), nil
	}
	for _, n := range current {
		if stepCompares(op, last, n, lit, litLeft) {
			return Boolean(true), nil
		}
	}
	return Boolean(false), nil
}

// stepCompares reports whether a node that step st reaches from n has
// a string-value s for which s op lit (lit op s when litLeft) holds.
func stepCompares(op string, st *Step, n *xmltree.Node, lit operand, litLeft bool) bool {
	holds := func(s string) bool {
		if litLeft {
			return compare(op, lit, operand{kind: opString, s: s})
		}
		return compare(op, operand{kind: opString, s: s}, lit)
	}
	switch st.Axis {
	case AxisChild:
		for _, c := range n.Children {
			if testMatches(st.Test, c) && holds(nodeStringValue(c)) {
				return true
			}
		}
	case AxisAttribute:
		if n.Kind != xmltree.ElementNode {
			return false
		}
		for _, a := range n.Attrs {
			if attrMatches(st.Test, a.Name) && holds(a.Value) {
				return true
			}
		}
	case AxisSelf:
		return testMatches(st.Test, n) && holds(nodeStringValue(n))
	}
	return false
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
		out = appendAxis(out, st.Axis, st.Test, n, ctx.Trees)
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
	pctx := Context{Vars: outer.Vars, Trees: outer.Trees}
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
// comment). The upward and sideways axes find n's parent in trees.
func appendAxis(out []*xmltree.Node, axis Axis, t NodeTest, n *xmltree.Node, trees *Trees) []*xmltree.Node {
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
		if p := trees.parentOf(n); p != nil && testMatches(t, p) {
			out = append(out, p)
		}
	case AxisAncestor, AxisAncestorOrSelf:
		p := n
		if axis == AxisAncestor {
			p = trees.parentOf(n)
		}
		for ; p != nil; p = trees.parentOf(p) {
			if testMatches(t, p) {
				out = append(out, p)
			}
		}
	case AxisAttribute:
		if n.Kind != xmltree.ElementNode {
			break
		}
		// Attributes are not nodes of the stored tree: synthesize one
		// only for an attribute the test selects, and remember its
		// element when an evaluation may look up from it.
		for _, a := range n.Attrs {
			if attrMatches(t, a.Name) {
				attr := &xmltree.Node{Kind: xmltree.AttrNode, Label: a.Name, Text: a.Value}
				if trees != nil {
					trees.own(attr, n)
				}
				out = append(out, attr)
			}
		}
	case AxisFollowingSibling, AxisPrecedingSibling:
		p := trees.parentOf(n)
		if p == nil {
			break
		}
		sibs := p.Children
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

// attrMatches applies a node test to the attribute of the given name.
func attrMatches(t NodeTest, name string) bool {
	return t.Kind == TestNode || t.Kind == TestWild || (t.Kind == TestName && name == t.Name)
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
