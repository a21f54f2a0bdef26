package xquery

// The eager evaluator as it stood before Query.Eval became the drained
// cursor, kept as the reference the differential tests compare the pull
// evaluator against: the whole tuple stream expanded by recursion over
// the clauses, then sorted, then one forest per tuple, node-sets
// materialized in one pass. Only the names differ from the original
// (the ref prefix) and the scope constructor (newEvalCtx). Scopes,
// doc() binding and the order-by sort are the current code, which did
// not change for them.

import (
	"fmt"

	"axml/internal/xmltree"
	"axml/internal/xpath"
)

func refEval(q *Query, env *Env, args ...[]*xmltree.Node) ([]*xmltree.Node, error) {
	if len(args) != len(q.Params) {
		return nil, errf("query takes %d parameter(s), got %d", len(q.Params), len(args))
	}
	return refEvalToForest(q.Body, q.rootCtx(nil, env, args))
}

func refEvalToValue(e Expr, ctx *evalCtx) (xpath.Value, error) {
	switch v := e.(type) {
	case *Path:
		if err := ctx.bindDocs(v); err != nil {
			return nil, err
		}
		return xpath.Eval(v.X, &ctx.xc)
	case TextLit:
		return xpath.String(v), nil
	case *Elem, *FLWR:
		forest, err := refEvalToForest(e, ctx)
		if err != nil {
			return nil, err
		}
		ctx.name(forest)
		return xpath.NodeSet(forest), nil
	default:
		return nil, errf("unknown expression type %T", e)
	}
}

func refEvalToForest(e Expr, ctx *evalCtx) ([]*xmltree.Node, error) {
	switch v := e.(type) {
	case *FLWR:
		return refEvalFLWR(v, ctx)
	case *Elem:
		n, err := refEvalElem(v, ctx)
		if err != nil {
			return nil, err
		}
		return []*xmltree.Node{n}, nil
	case TextLit:
		return []*xmltree.Node{xmltree.NewText(string(v))}, nil
	case *Path:
		val, err := refEvalToValue(v, ctx)
		if err != nil {
			return nil, err
		}
		return refMaterialize(val), nil
	default:
		return nil, errf("unknown expression type %T", e)
	}
}

// refMaterialize converts an XPath value to a forest: node-sets are
// deep-copied, scalars become text nodes.
func refMaterialize(v xpath.Value) []*xmltree.Node {
	switch x := v.(type) {
	case xpath.NodeSet:
		out := make([]*xmltree.Node, 0, len(x))
		for _, n := range x {
			if n.Kind == xmltree.AttrNode {
				out = append(out, xmltree.NewText(n.Text))
				continue
			}
			out = append(out, xmltree.DeepCopy(n))
		}
		return out
	default:
		return []*xmltree.Node{xmltree.NewText(v.Str())}
	}
}

func refEvalFLWR(f *FLWR, ctx *evalCtx) ([]*xmltree.Node, error) {
	tuples, err := refCollectTuples(f, ctx)
	if err != nil {
		return nil, err
	}
	tuples, err = sortTuples(f, tuples)
	if err != nil {
		return nil, err
	}

	var out []*xmltree.Node
	for _, tup := range tuples {
		f, err := refEvalToForest(f.Return, tup)
		if err != nil {
			return nil, err
		}
		out = append(out, f...)
	}
	return out, nil
}

// refCollectTuples expands the clauses depth-first into the
// binding-tuple stream, applying the where filter.
func refCollectTuples(f *FLWR, ctx *evalCtx) ([]*evalCtx, error) {
	var tuples []*evalCtx
	var expand func(i int, cur *evalCtx) error
	expand = func(i int, cur *evalCtx) error {
		if i == len(f.Clauses) {
			if f.Where != nil {
				v, err := refEvalToValue(f.Where, cur)
				if err != nil {
					return err
				}
				if !v.Bool() {
					return nil
				}
			}
			tuples = append(tuples, cur)
			return nil
		}
		switch cl := f.Clauses[i].(type) {
		case ForClause:
			val, err := refEvalToValue(cl.Source, cur)
			if err != nil {
				return err
			}
			ns, ok := val.(xpath.NodeSet)
			if !ok {
				return errf("for $%s: source is not a node sequence (got %T)", cl.Var, val)
			}
			for _, n := range ns {
				if err := expand(i+1, cur.with(cl.Var, xpath.NodeSet{n})); err != nil {
					return err
				}
			}
			return nil
		case LetClause:
			val, err := refEvalToValue(cl.Source, cur)
			if err != nil {
				return err
			}
			return expand(i+1, cur.with(cl.Var, val))
		default:
			return errf("unknown clause type %T", cl)
		}
	}
	if err := expand(0, ctx); err != nil {
		return nil, err
	}
	return tuples, nil
}

func refEvalElem(e *Elem, ctx *evalCtx) (*xmltree.Node, error) {
	n := xmltree.NewElement(e.Label)
	for _, a := range e.Attrs {
		if a.Computed == nil {
			n.SetAttr(a.Name, a.Literal)
			continue
		}
		v, err := refEvalToValue(a.Computed, ctx)
		if err != nil {
			return nil, fmt.Errorf("xquery: attribute %q: %w", a.Name, err)
		}
		n.SetAttr(a.Name, v.Str())
	}
	for _, c := range e.Content {
		if t, ok := c.(TextLit); ok {
			n.AppendChild(xmltree.NewText(string(t)))
			continue
		}
		forest, err := refEvalToForest(c, ctx)
		if err != nil {
			return nil, err
		}
		for _, child := range forest {
			n.AppendChild(child)
		}
	}
	return n, nil
}
