package xquery

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"axml/internal/xmltree"
	"axml/internal/xpath"
)

// DocResolver resolves a document name to its root. Peers install
// their document stores here; the gendoc package installs pickDoc
// resolution for generic documents.
type DocResolver func(name string) (*xmltree.Node, error)

// Env is the dynamic environment of a query evaluation.
type Env struct {
	// Resolve resolves doc("name") references. May be nil if the query
	// references no documents.
	Resolve DocResolver
}

// EvalError reports a dynamic query failure.
type EvalError struct {
	Msg   string
	cause error // optional underlying error (e.g. a context failure)
}

func (e *EvalError) Error() string { return "xquery: " + e.Msg }

// Unwrap exposes the underlying cause, so a cursor stopped by context
// cancellation still satisfies errors.Is(err, context.Canceled).
func (e *EvalError) Unwrap() error { return e.cause }

func errf(format string, args ...any) error {
	return &EvalError{Msg: fmt.Sprintf(format, args...)}
}

// Eval evaluates the query with the given positional arguments (one
// forest per declared parameter) and returns the result forest: the
// rows of EvalCursor, drained. The result trees are freshly constructed
// (or deep-copied) — they share no structure with the queried
// documents. A failure anywhere in the evaluation returns no rows.
func (q *Query) Eval(env *Env, args ...[]*xmltree.Node) ([]*xmltree.Node, error) {
	if len(args) != len(q.Params) {
		return nil, errf("query takes %d parameter(s), got %d", len(q.Params), len(args))
	}
	return evalToForest(q.Body, q.rootCtx(nil, env, args))
}

// evaluation is the state one query evaluation shares across all of its
// scopes.
type evaluation struct {
	env     *Env
	ctx     context.Context // nil: the evaluation cannot be canceled
	scanned uint            // candidate tuples examined so far
}

// cancelCheckEvery is how many candidate tuples a scan examines between
// two looks at the evaluation's context.
const cancelCheckEvery = 1024

// canceled reports the evaluation's context failure, if any, as an
// EvalError that unwraps to it.
func (ev *evaluation) canceled() error {
	if ev.ctx == nil {
		return nil
	}
	if err := ev.ctx.Err(); err != nil {
		return &EvalError{Msg: "canceled: " + err.Error(), cause: err}
	}
	return nil
}

// evalCtx is one binding scope of an evaluation: a tuple, a partial
// tuple, or the query's parameters. xc.Vars is the scope's variable
// chain; xc is handed to the XPath evaluator as is, so evaluating a
// path allocates no context.
type evalCtx struct {
	ev *evaluation
	xc xpath.Context
}

// newEvalCtx is the empty outermost scope of a new evaluation.
func newEvalCtx(ctx context.Context, env *Env) *evalCtx {
	return &evalCtx{ev: &evaluation{env: env, ctx: ctx}}
}

// rootCtx is the outermost scope: the parameters bound to the arguments.
func (q *Query) rootCtx(ctx context.Context, env *Env, args [][]*xmltree.Node) *evalCtx {
	c := newEvalCtx(ctx, env)
	for i, p := range q.Params {
		c.bind(p, xpath.NodeSet(args[i]))
	}
	return c
}

// bind extends this scope in place.
func (c *evalCtx) bind(name string, v xpath.Value) { c.xc.Vars = c.xc.Vars.Bind(name, v) }

// with returns a new scope with one more binding. It shares c's chain:
// bindings c gains later are not seen by the child, nor the reverse.
func (c *evalCtx) with(name string, v xpath.Value) *evalCtx {
	return &evalCtx{ev: c.ev, xc: xpath.Context{Vars: c.xc.Vars.Bind(name, v)}}
}

// bindDocs resolves the doc() references of a path and binds their
// synthetic variables.
func (c *evalCtx) bindDocs(p *Path) error {
	for _, name := range p.Docs {
		key := docVarPrefix + name
		if _, done := c.xc.Vars.Lookup(key); done {
			continue
		}
		env := c.ev.env
		if env == nil || env.Resolve == nil {
			return errf("query references doc(%q) but no document resolver is configured", name)
		}
		root, err := env.Resolve(name)
		if err != nil {
			return fmt.Errorf("xquery: resolving doc(%q): %w", name, err)
		}
		c.bind(key, xpath.NodeSet{root})
	}
	return nil
}

// evalToValue evaluates an expression to an XPath value.
func evalToValue(e Expr, ctx *evalCtx) (xpath.Value, error) {
	switch v := e.(type) {
	case *Path:
		if err := ctx.bindDocs(v); err != nil {
			return nil, err
		}
		return xpath.Eval(v.X, &ctx.xc)
	case TextLit:
		return xpath.String(v), nil
	case *Elem, *FLWR, *Seq:
		forest, err := evalToForest(e, ctx)
		if err != nil {
			return nil, err
		}
		return xpath.NodeSet(forest), nil
	default:
		return nil, errf("unknown expression type %T", e)
	}
}

// evalToForest evaluates an expression to a forest of trees by
// draining its row iterator; a failure discards the rows before it.
func evalToForest(e Expr, ctx *evalCtx) ([]*xmltree.Node, error) {
	var out []*xmltree.Node
	it := exprIter(e, ctx)
	for {
		n, err := it.next()
		if err != nil {
			return nil, err
		}
		if n == nil {
			return out, nil
		}
		out = append(out, n)
	}
}

// LiveNodes evaluates a query whose body is a bare path and returns
// the matched nodes themselves — not copies — so callers holding the
// appropriate locks can address them by identifier for in-place
// updates (peer.SelectIDs, the delete/replace statements). Attribute
// pseudo-nodes are filtered out: they are synthesized by the attribute
// axis and have no stable identity.
func LiveNodes(q *Query, env *Env) ([]*xmltree.Node, error) {
	if len(q.Params) != 0 {
		return nil, errf("LiveNodes: parameterized query")
	}
	p, ok := q.Body.(*Path)
	if !ok {
		return nil, errf("LiveNodes: query body is not a path")
	}
	val, err := evalToValue(p, newEvalCtx(nil, env))
	if err != nil {
		return nil, err
	}
	ns, ok := val.(xpath.NodeSet)
	if !ok {
		return nil, errf("LiveNodes: path did not yield a node sequence")
	}
	out := make([]*xmltree.Node, 0, len(ns))
	for _, n := range ns {
		if n.Kind != xmltree.AttrNode {
			out = append(out, n)
		}
	}
	return out, nil
}

// collectTuples drains the clause odometer into the list of binding
// tuples an order by sorts.
func collectTuples(src *lazyTuples) ([]*evalCtx, error) {
	var tuples []*evalCtx
	for {
		tup, err := src.next()
		if tup == nil {
			return tuples, err
		}
		tuples = append(tuples, tup)
	}
}

// sortTuples applies the order-by clause (a no-op when absent).
func sortTuples(f *FLWR, tuples []*evalCtx) ([]*evalCtx, error) {
	if f.Order == nil {
		return tuples, nil
	}
	keys := make([]xpath.Value, len(tuples))
	for i, tup := range tuples {
		k, err := evalToValue(f.Order.Key, tup)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	numeric := true
	for _, k := range keys {
		if math.IsNaN(k.Number()) {
			numeric = false
			break
		}
	}
	idx := make([]int, len(tuples))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if f.Order.Descending {
			if numeric {
				return keys[a].Number() > keys[b].Number()
			}
			return keys[a].Str() > keys[b].Str()
		}
		if numeric {
			return keys[a].Number() < keys[b].Number()
		}
		return keys[a].Str() < keys[b].Str()
	})
	sorted := make([]*evalCtx, len(tuples))
	for i, j := range idx {
		sorted[i] = tuples[j]
	}
	return sorted, nil
}

func evalElem(e *Elem, ctx *evalCtx) (*xmltree.Node, error) {
	n := xmltree.NewElement(e.Label)
	for _, a := range e.Attrs {
		if a.Computed == nil {
			n.SetAttr(a.Name, a.Literal)
			continue
		}
		v, err := evalToValue(a.Computed, ctx)
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
		for it := exprIter(c, ctx); ; {
			child, err := it.next()
			if err != nil {
				return nil, err
			}
			if child == nil {
				break
			}
			n.AppendChild(child)
		}
	}
	return n, nil
}

// DocRefs returns the names of all documents the query references via
// doc("name"), in first-occurrence order.
func (q *Query) DocRefs() []string {
	var out []string
	seen := map[string]bool{}
	var walkX func(e xpath.Expr)
	walkX = func(e xpath.Expr) {
		switch v := e.(type) {
		case xpath.VarRef:
			if name, ok := strings.CutPrefix(string(v), docVarPrefix); ok && !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		case *xpath.PathExpr:
			if v.Filter != nil {
				walkX(v.Filter)
			}
			for _, s := range v.Steps {
				for _, p := range s.Preds {
					walkX(p)
				}
			}
		case *xpath.BinaryExpr:
			walkX(v.L)
			walkX(v.R)
		case *xpath.UnionExpr:
			for _, p := range v.Paths {
				walkX(p)
			}
		case *xpath.NegExpr:
			walkX(v.X)
		case *xpath.FuncCall:
			for _, a := range v.Args {
				walkX(a)
			}
		}
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *Path:
			walkX(v.X)
		case *FLWR:
			for _, c := range v.Clauses {
				switch cl := c.(type) {
				case ForClause:
					walk(cl.Source)
				case LetClause:
					walk(cl.Source)
				}
			}
			if v.Where != nil {
				walk(v.Where)
			}
			if v.Order != nil {
				walk(v.Order.Key)
			}
			walk(v.Return)
		case *Elem:
			for _, a := range v.Attrs {
				if a.Computed != nil {
					walk(a.Computed)
				}
			}
			for _, c := range v.Content {
				walk(c)
			}
		case *Seq:
			for _, it := range v.Items {
				walk(it)
			}
		}
	}
	walk(q.Body)
	return out
}
