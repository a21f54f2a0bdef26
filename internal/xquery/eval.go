package xquery

import (
	"context"
	"fmt"
	"math"
	"slices"
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
	// Index, when set, holds the value indexes of the roots Resolve
	// gives: a point lookup's for clause takes the candidates the index
	// holds for its key instead of scanning (lazyTuples.candidates).
	Index Indexes
}

// Indexes gives the value index of shape s over doc(name) if root is
// the root the environment resolves it to, and ok false otherwise. A
// peer's pinned snapshot is one.
type Indexes interface {
	Index(name string, root *xmltree.Node, s Shape) (idx *ValueIndex, ok bool)
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
// chain and xc.Trees, shared by every scope, the evaluation's trees; xc
// is handed to the XPath evaluator as is, so evaluating a path
// allocates no context.
type evalCtx struct {
	ev *evaluation
	xc xpath.Context
}

// newEvalCtx is the empty outermost scope of a new evaluation. Unless
// what it evaluates is downward only, the evaluation names its trees —
// every document it resolves, argument it is given and forest it
// builds — so upward and sideways steps find where a node sits.
func newEvalCtx(ctx context.Context, env *Env, down bool) *evalCtx {
	c := &evalCtx{ev: &evaluation{env: env, ctx: ctx}}
	if !down {
		c.xc.Trees = xpath.NewTrees()
	}
	return c
}

// rootCtx is the outermost scope: the parameters bound to the arguments.
func (q *Query) rootCtx(ctx context.Context, env *Env, args [][]*xmltree.Node) *evalCtx {
	c := newEvalCtx(ctx, env, q.DownwardOnly())
	for i, p := range q.Params {
		c.name(args[i])
		c.bind(p, xpath.NodeSet(args[i]))
	}
	return c
}

// name adds the trees of forest to the evaluation's trees, if it keeps
// them.
func (c *evalCtx) name(forest []*xmltree.Node) {
	if t := c.xc.Trees; t != nil {
		for _, n := range forest {
			t.Add(n)
		}
	}
}

// bind extends this scope in place.
func (c *evalCtx) bind(name string, v xpath.Value) { c.xc.Vars = c.xc.Vars.Bind(name, v) }

// with returns a new scope with one more binding. It shares c's chain:
// bindings c gains later are not seen by the child, nor the reverse.
func (c *evalCtx) with(name string, v xpath.Value) *evalCtx {
	return &evalCtx{ev: c.ev, xc: xpath.Context{Vars: c.xc.Vars.Bind(name, v), Trees: c.xc.Trees}}
}

// bindDocs resolves the doc() references of a path and binds their
// synthetic variables.
func (c *evalCtx) bindDocs(p *Path) error {
	for _, name := range p.Docs {
		key := xpath.DocVar + name
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
		ns := xpath.NodeSet{root}
		c.name(ns)
		c.bind(key, ns)
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
	case *Elem, *FLWR:
		forest, err := evalToForest(e, ctx)
		if err != nil {
			return nil, err
		}
		ctx.name(forest)
		return xpath.NodeSet(forest), nil
	default:
		return nil, errf("unknown expression type %T", e)
	}
}

// evalToForest evaluates an expression to a forest of trees it owns by
// draining its row iterator; a failure discards the rows before it.
func evalToForest(e Expr, ctx *evalCtx) ([]*xmltree.Node, error) {
	var out []*xmltree.Node
	it := exprIter(e, ctx, true)
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
	val, err := evalToValue(p, newEvalCtx(nil, env, downwardOnly(p)))
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
		for it := exprIter(c, ctx, true); ; {
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

// DownwardOnly reports whether every path of the query stays inside
// the subtree it starts from (xpath.DownwardOnly): no upward or
// sideways step and no absolute path. Only a query that does not is
// evaluated with its trees named, and only a body that does can be
// maintained from the subtree its variable is bound to.
func (q *Query) DownwardOnly() bool { return downwardOnly(q.Body) }

func downwardOnly(e Expr) bool { return eachPath(e, xpath.DownwardOnly) }

// eachPath calls f with the XPath expression of every path in e, in
// source order, until f returns false; it reports whether f never did.
func eachPath(e Expr, f func(xpath.Expr) bool) bool {
	switch v := e.(type) {
	case *Path:
		return f(v.X)
	case *FLWR:
		for _, c := range v.Clauses {
			switch cl := c.(type) {
			case ForClause:
				if !eachPath(cl.Source, f) {
					return false
				}
			case LetClause:
				if !eachPath(cl.Source, f) {
					return false
				}
			}
		}
		return (v.Where == nil || eachPath(v.Where, f)) &&
			(v.Order == nil || eachPath(v.Order.Key, f)) && eachPath(v.Return, f)
	case *Elem:
		for _, a := range v.Attrs {
			if a.Computed != nil && !eachPath(a.Computed, f) {
				return false
			}
		}
		for _, c := range v.Content {
			if !eachPath(c, f) {
				return false
			}
		}
	}
	return true
}

// DocRefs returns the names of all documents the query references via
// doc("name"), in first-occurrence order.
func (q *Query) DocRefs() []string {
	var out []string
	eachPath(q.Body, func(x xpath.Expr) bool {
		for _, v := range xpath.Variables(x) {
			if name, ok := strings.CutPrefix(v, xpath.DocVar); ok && !slices.Contains(out, name) {
				out = append(out, name)
			}
		}
		return true
	})
	return out
}
