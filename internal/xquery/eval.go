package xquery

import (
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
// forest per declared parameter) and returns the result forest. The
// result trees are freshly constructed (or deep-copied) — they share
// no structure with the queried documents.
func (q *Query) Eval(env *Env, args ...[]*xmltree.Node) ([]*xmltree.Node, error) {
	if len(args) != len(q.Params) {
		return nil, errf("query takes %d parameter(s), got %d", len(q.Params), len(args))
	}
	return evalToForest(q.Body, q.rootCtx(env, args))
}

// EvalValue evaluates the query body to an XPath value rather than a
// forest; used for scalar queries (counts, predicates).
func (q *Query) EvalValue(env *Env, args ...[]*xmltree.Node) (xpath.Value, error) {
	if len(args) != len(q.Params) {
		return nil, errf("query takes %d parameter(s), got %d", len(q.Params), len(args))
	}
	return evalToValue(q.Body, q.rootCtx(env, args))
}

// evalCtx is one binding scope of an evaluation: a tuple, a partial
// tuple, or the query's parameters. xc.Vars is the scope's variable
// chain; xc is handed to the XPath evaluator as is, so evaluating a
// path allocates no context.
type evalCtx struct {
	env *Env
	xc  xpath.Context
}

// rootCtx is the outermost scope: the parameters bound to the arguments.
func (q *Query) rootCtx(env *Env, args [][]*xmltree.Node) *evalCtx {
	ctx := &evalCtx{env: env}
	for i, p := range q.Params {
		ctx.bind(p, xpath.NodeSet(args[i]))
	}
	return ctx
}

// bind extends this scope in place.
func (c *evalCtx) bind(name string, v xpath.Value) { c.xc.Vars = c.xc.Vars.Bind(name, v) }

// with returns a new scope with one more binding. It shares c's chain:
// bindings c gains later are not seen by the child, nor the reverse.
func (c *evalCtx) with(name string, v xpath.Value) *evalCtx {
	return &evalCtx{env: c.env, xc: xpath.Context{Vars: c.xc.Vars.Bind(name, v)}}
}

// bindDocs resolves the doc() references of a path and binds their
// synthetic variables.
func (c *evalCtx) bindDocs(p *Path) error {
	for _, name := range p.Docs {
		key := docVarPrefix + name
		if _, done := c.xc.Vars.Lookup(key); done {
			continue
		}
		if c.env == nil || c.env.Resolve == nil {
			return errf("query references doc(%q) but no document resolver is configured", name)
		}
		root, err := c.env.Resolve(name)
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

// evalToForest evaluates an expression to a forest of trees.
func evalToForest(e Expr, ctx *evalCtx) ([]*xmltree.Node, error) {
	switch v := e.(type) {
	case *FLWR:
		return evalFLWR(v, ctx)
	case *Elem:
		n, err := evalElem(v, ctx)
		if err != nil {
			return nil, err
		}
		return []*xmltree.Node{n}, nil
	case *Seq:
		var out []*xmltree.Node
		for _, item := range v.Items {
			f, err := evalToForest(item, ctx)
			if err != nil {
				return nil, err
			}
			out = append(out, f...)
		}
		return out, nil
	case TextLit:
		return []*xmltree.Node{xmltree.NewText(string(v))}, nil
	case *Path:
		val, err := evalToValue(v, ctx)
		if err != nil {
			return nil, err
		}
		return materialize(val), nil
	default:
		return nil, errf("unknown expression type %T", e)
	}
}

// materialize converts an XPath value to a forest: node-sets are
// deep-copied, scalars become text nodes.
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
	val, err := evalToValue(p, &evalCtx{env: env})
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

func materialize(v xpath.Value) []*xmltree.Node {
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

func evalFLWR(f *FLWR, ctx *evalCtx) ([]*xmltree.Node, error) {
	tuples, err := collectTuples(f, ctx)
	if err != nil {
		return nil, err
	}
	tuples, err = sortTuples(f, tuples)
	if err != nil {
		return nil, err
	}

	var out []*xmltree.Node
	for _, tup := range tuples {
		f, err := evalToForest(f.Return, tup)
		if err != nil {
			return nil, err
		}
		out = append(out, f...)
	}
	return out, nil
}

// collectTuples expands the clauses depth-first into the binding-tuple
// stream, applying the where filter. Shared by the eager evaluator and
// the order-by path of the cursor evaluator (an order by needs every
// tuple before the first row can leave).
func collectTuples(f *FLWR, ctx *evalCtx) ([]*evalCtx, error) {
	var tuples []*evalCtx
	var expand func(i int, cur *evalCtx) error
	expand = func(i int, cur *evalCtx) error {
		if i == len(f.Clauses) {
			if f.Where != nil {
				v, err := evalToValue(f.Where, cur)
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
			val, err := evalToValue(cl.Source, cur)
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
			val, err := evalToValue(cl.Source, cur)
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
		forest, err := evalToForest(c, ctx)
		if err != nil {
			return nil, err
		}
		for _, child := range forest {
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
