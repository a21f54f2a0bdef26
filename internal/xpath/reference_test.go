package xpath

// The evaluator's step and comparison code as it stood before the
// allocation-lean rewrite, kept as the reference the differential
// tests compare the current code against: one map-deduplicated
// refApplyStep for every axis, every attribute materialized, every
// string-value boxed. Only the names differ from the original (the
// ref prefix). refEval routes paths, operators and unions here and
// hands the rest — literals, variables, the function library — to the
// current evaluator, which did not change for them.

import (
	"fmt"

	"axml/internal/xmltree"
)

func refEval(e Expr, ctx *Context) (Value, error) {
	switch v := e.(type) {
	case *NegExpr:
		x, err := refEval(v.X, ctx)
		if err != nil {
			return nil, err
		}
		return Number(-x.Number()), nil
	case *BinaryExpr:
		return refEvalBinary(v, ctx)
	case *UnionExpr:
		var out NodeSet
		seen := map[*xmltree.Node]bool{}
		for _, pe := range v.Paths {
			val, err := refEval(pe, ctx)
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
		// The function library evaluates its arguments with the current
		// evaluator; hand it reference-evaluated arguments as variables
		// so paths inside calls are checked too.
		call := &FuncCall{Name: v.Name, Args: make([]Expr, len(v.Args))}
		fctx := *ctx
		for i, a := range v.Args {
			val, err := refEval(a, ctx)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("#ref-arg-%d", i)
			fctx.Vars = fctx.Vars.Bind(name, val)
			call.Args[i] = VarRef(name)
		}
		return evalFunc(call, &fctx)
	case *PathExpr:
		return refEvalPath(v, ctx)
	default:
		return evalExpr(e, ctx)
	}
}

func refEvalBinary(b *BinaryExpr, ctx *Context) (Value, error) {
	switch b.Op {
	case "or":
		l, err := refEval(b.L, ctx)
		if err != nil {
			return nil, err
		}
		if l.Bool() {
			return Boolean(true), nil
		}
		r, err := refEval(b.R, ctx)
		if err != nil {
			return nil, err
		}
		return Boolean(r.Bool()), nil
	case "and":
		l, err := refEval(b.L, ctx)
		if err != nil {
			return nil, err
		}
		if !l.Bool() {
			return Boolean(false), nil
		}
		r, err := refEval(b.R, ctx)
		if err != nil {
			return nil, err
		}
		return Boolean(r.Bool()), nil
	}
	l, err := refEval(b.L, ctx)
	if err != nil {
		return nil, err
	}
	r, err := refEval(b.R, ctx)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		return Boolean(refCompareValues(b.Op, l, r)), nil
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

func refEvalPath(p *PathExpr, ctx *Context) (Value, error) {
	var current NodeSet
	switch {
	case p.Filter != nil:
		v, err := refEval(p.Filter, ctx)
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
		docNode := &xmltree.Node{
			Kind:     xmltree.ElementNode,
			Label:    "#document",
			Children: []*xmltree.Node{root},
		}
		current = NodeSet{docNode}
	default:
		if ctx.Node == nil {
			return nil, &EvalError{Expr: p.String(), Msg: "no context node for relative path"}
		}
		current = NodeSet{ctx.Node}
	}
	for _, step := range p.Steps {
		next, err := refApplyStep(step, current, ctx)
		if err != nil {
			return nil, err
		}
		current = next
	}
	return current, nil
}

// refApplyStep maps a node-set through one location step, preserving
// first-visit order and removing duplicates.
func refApplyStep(st Step, input NodeSet, ctx *Context) (NodeSet, error) {
	var out NodeSet
	seen := map[*xmltree.Node]bool{}
	for _, n := range input {
		candidates := refAxisNodes(st.Axis, n)
		// candidates may alias the tree's own child slice; never mutate it.
		matched := make([]*xmltree.Node, 0, len(candidates))
		for _, c := range candidates {
			if refTestMatches(st.Test, st.Axis, c) {
				matched = append(matched, c)
			}
		}
		filtered, err := refApplyPredicates(st.Preds, matched, ctx)
		if err != nil {
			return nil, err
		}
		for _, c := range filtered {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out, nil
}

func refApplyPredicates(preds []Expr, nodes []*xmltree.Node, outer *Context) ([]*xmltree.Node, error) {
	current := nodes
	for _, pred := range preds {
		var kept []*xmltree.Node
		size := len(current)
		for i, n := range current {
			pctx := &Context{Node: n, Pos: i + 1, Size: size, Vars: outer.Vars}
			v, err := refEval(pred, pctx)
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
		current = kept
	}
	return current, nil
}

// refAxisNodes enumerates the nodes on the given axis from n, in document
// order (reverse axes included — see package comment).
func refAxisNodes(axis Axis, n *xmltree.Node) []*xmltree.Node {
	switch axis {
	case AxisChild:
		return n.Children
	case AxisDescendant:
		var out []*xmltree.Node
		for _, c := range n.Children {
			c.Walk(func(m *xmltree.Node) bool {
				out = append(out, m)
				return true
			})
		}
		return out
	case AxisDescendantOrSelf:
		var out []*xmltree.Node
		n.Walk(func(m *xmltree.Node) bool {
			out = append(out, m)
			return true
		})
		return out
	case AxisSelf:
		return []*xmltree.Node{n}
	case AxisParent:
		if n.Parent == nil {
			return nil
		}
		return []*xmltree.Node{n.Parent}
	case AxisAncestor:
		var out []*xmltree.Node
		for p := n.Parent; p != nil; p = p.Parent {
			out = append(out, p)
		}
		return out
	case AxisAncestorOrSelf:
		var out []*xmltree.Node
		for p := n; p != nil; p = p.Parent {
			out = append(out, p)
		}
		return out
	case AxisAttribute:
		if n.Kind != xmltree.ElementNode {
			return nil
		}
		out := make([]*xmltree.Node, 0, len(n.Attrs))
		for _, a := range n.Attrs {
			out = append(out, &xmltree.Node{
				Kind:   xmltree.AttrNode,
				Label:  a.Name,
				Text:   a.Value,
				Parent: n,
			})
		}
		return out
	case AxisFollowingSibling:
		if n.Parent == nil {
			return nil
		}
		sibs := n.Parent.Children
		for i, s := range sibs {
			if s == n {
				return sibs[i+1:]
			}
		}
		return nil
	case AxisPrecedingSibling:
		if n.Parent == nil {
			return nil
		}
		sibs := n.Parent.Children
		for i, s := range sibs {
			if s == n {
				out := make([]*xmltree.Node, i)
				copy(out, sibs[:i])
				return out
			}
		}
		return nil
	default:
		return nil
	}
}

func refTestMatches(t NodeTest, axis Axis, n *xmltree.Node) bool {
	switch t.Kind {
	case TestNode:
		return true
	case TestText:
		return n.Kind == xmltree.TextNode
	case TestComment:
		return n.Kind == xmltree.CommentNode
	case TestWild:
		if axis == AxisAttribute {
			return n.Kind == xmltree.AttrNode
		}
		return n.Kind == xmltree.ElementNode
	case TestName:
		if axis == AxisAttribute {
			return n.Kind == xmltree.AttrNode && n.Label == t.Name
		}
		return n.Kind == xmltree.ElementNode && n.Label == t.Name
	}
	return false
}

// refCompareValues implements XPath comparison semantics including the
// existential rules for node-sets.
func refCompareValues(op string, a, b Value) bool {
	nsA, aIsNS := a.(NodeSet)
	nsB, bIsNS := b.(NodeSet)
	switch {
	case aIsNS && bIsNS:
		for _, x := range nsA {
			for _, y := range nsB {
				if refCmpAtomic(op, String(nodeStringValue(x)), String(nodeStringValue(y))) {
					return true
				}
			}
		}
		return false
	case aIsNS:
		for _, x := range nsA {
			if refCmpAtomic(op, String(nodeStringValue(x)), b) {
				return true
			}
		}
		return false
	case bIsNS:
		for _, y := range nsB {
			if refCmpAtomic(op, a, String(nodeStringValue(y))) {
				return true
			}
		}
		return false
	default:
		return refCmpAtomic(op, a, b)
	}
}

// refCmpAtomic compares two non-node-set values.
func refCmpAtomic(op string, a, b Value) bool {
	switch op {
	case "=", "!=":
		var eq bool
		switch {
		case refIsBool(a) || refIsBool(b):
			eq = a.Bool() == b.Bool()
		case refIsNumber(a) || refIsNumber(b):
			eq = a.Number() == b.Number()
		default:
			eq = a.Str() == b.Str()
		}
		if op == "=" {
			return eq
		}
		return !eq
	case "<":
		return a.Number() < b.Number()
	case "<=":
		return a.Number() <= b.Number()
	case ">":
		return a.Number() > b.Number()
	case ">=":
		return a.Number() >= b.Number()
	}
	return false
}

func refIsBool(v Value) bool   { _, ok := v.(Boolean); return ok }
func refIsNumber(v Value) bool { _, ok := v.(Number); return ok }
