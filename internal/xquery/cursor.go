// Pull-based evaluation, the only kind: every expression is a row
// iterator (exprIter). EvalCursor hands one out a result tree per Next;
// Query.Eval, and every nested expression that needs a forest, drains
// one. For-clauses advance like an odometer, the where filter runs per
// candidate tuple, and the return expression — usually the expensive
// part, a constructor or a nested FLWR — is only evaluated for tuples
// actually pulled. The first row of an N-row result costs O(source scan
// + 1 row), not O(N rows), which is what lets a server ship the first
// x:row of a wire stream while evaluation continues.
//
// Laziness has one inherent limit: an order-by must see every binding
// tuple before the first row can leave, so ordered FLWRs drain and sort
// their tuples on the first pull — but still evaluate the return
// expression per pull. Sequences compose lazily; bare paths evaluate
// their node-set in one XPath pass (the language is set-oriented below
// the FLWR level) and then hand out one node per pull. Such a pass is
// also the one thing cancellation cannot interrupt: the context is
// looked at before every pull and every cancelCheckEvery candidate
// tuples of a scan.
//
// A row that is a node of a resolved document is handed out as it is:
// a read-only reference that may carry its stored Parent. Trees are
// copied only where they are attached or kept — a constructor copies
// the content it attaches, a value forest (a let binding, a sequence
// used as a for source) and Query.Eval's forest are owned, and an
// OwnedCursor copies each such row as it is pulled.
package xquery

import (
	"context"

	"axml/internal/xmltree"
	"axml/internal/xpath"
)

// Row is one result tree of a streamed evaluation.
type Row = *xmltree.Node

// Cursor streams a query's result forest. Next returns (nil, nil) when
// the stream is exhausted; after an error or a Close every subsequent
// Next returns the same terminal state. Close abandons the remaining
// evaluation — no further work happens on behalf of the query.
type Cursor interface {
	Next() (Row, error)
	Close() error
}

// EvalCursor evaluates the query lazily: the returned cursor yields
// the same trees, in the same order, as Eval's result forest, but rows
// are produced on demand. A row is read-only: it may be a node of a
// resolved document, still carrying its stored Parent. DeepCopy it to
// own it, or open an OwnedCursor. ctx is checked on every pull and
// inside long tuple scans — canceling it stops the evaluation where it
// stands, with an error that unwraps to ctx.Err().
//
// Error timing: a cursor yields the rows preceding a failure, then the
// failure. Eval is this cursor drained, so it runs exactly as far — it
// returns no rows on failure because the drain discards them.
//
// Concurrency contract: the cursor reads the resolved documents
// without locking, which is safe because resolvers hand out immutable
// snapshots — peer document stores are copy-on-write (every mutation
// publishes a new epoch; published trees are never written again), so
// a stream sees one frozen epoch for its whole lifetime no matter what
// writers commit meanwhile. A resolver serving genuinely mutable trees
// (hand-built Envs over scratch nodes) must not mutate them while the
// stream is live.
func (q *Query) EvalCursor(ctx context.Context, env *Env, args ...[]*xmltree.Node) (Cursor, error) {
	return q.cursor(ctx, env, args, false)
}

// OwnedCursor is EvalCursor for a consumer that keeps its rows: every
// row is a tree of its own, sharing no structure with the resolved
// documents. A row that would be a document node is deep-copied as it
// is pulled; a constructed row is not copied again.
func (q *Query) OwnedCursor(ctx context.Context, env *Env, args ...[]*xmltree.Node) (Cursor, error) {
	return q.cursor(ctx, env, args, true)
}

func (q *Query) cursor(ctx context.Context, env *Env, args [][]*xmltree.Node, own bool) (Cursor, error) {
	if len(args) != len(q.Params) {
		return nil, errf("query takes %d parameter(s), got %d", len(q.Params), len(args))
	}
	root := q.rootCtx(ctx, env, args)
	return &queryCursor{ev: root.ev, it: exprIter(q.Body, root, own)}, nil
}

// queryCursor is the exported Cursor over the internal row iterators:
// it owns the terminal state and the per-pull context check.
type queryCursor struct {
	ev  *evaluation
	it  rowIter // nil once exhausted or closed
	err error
}

func (c *queryCursor) Next() (Row, error) {
	if c.err != nil || c.it == nil {
		return nil, c.err
	}
	if c.err = c.ev.canceled(); c.err != nil {
		return nil, c.err
	}
	n, err := c.it.next()
	if err != nil {
		c.err = err
		return nil, err
	}
	if n == nil {
		c.it = nil
	}
	return n, nil
}

func (c *queryCursor) Close() error {
	c.it = nil
	return nil
}

// rowIter is the internal pull interface: next returns (nil, nil) when
// exhausted. Iterators hold no resources beyond their evaluation
// state, so there is no close — dropping one abandons it.
type rowIter interface {
	next() (*xmltree.Node, error)
}

// exprIter builds the lazy iterator for an expression. Construction
// never evaluates anything; all work (including source scans) happens
// on the first next. With own set, every row it yields is a tree of
// its own; otherwise a path's rows are the nodes it selects.
func exprIter(e Expr, ctx *evalCtx, own bool) rowIter {
	switch v := e.(type) {
	case *FLWR:
		return &flwrIter{f: v, tuples: lazyTuples{f: v, base: ctx}, own: own}
	case *Seq:
		return &seqIter{items: v.Items, ctx: ctx, own: own}
	case *Elem, TextLit:
		return &onceIter{e: v, ctx: ctx}
	case *Path:
		return &pathIter{p: v, ctx: ctx, own: own}
	default:
		return &errIter{err: errf("unknown expression type %T", e)}
	}
}

type errIter struct{ err error }

func (it *errIter) next() (*xmltree.Node, error) { return nil, it.err }

// onceIter yields the single tree of a constructor or a text literal,
// built when it is pulled.
type onceIter struct {
	e    Expr
	ctx  *evalCtx
	done bool
}

func (it *onceIter) next() (*xmltree.Node, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	if el, ok := it.e.(*Elem); ok {
		return evalElem(el, it.ctx)
	}
	return xmltree.NewText(string(it.e.(TextLit))), nil
}

// pathIter evaluates the path's value on first pull (one set-oriented
// XPath pass) and then hands out one node per pull: a node as it is
// (deep-copied when own is set), an attribute as a text node of its
// value, a scalar as one text node.
type pathIter struct {
	p       *Path
	ctx     *evalCtx
	own     bool
	started bool
	ns      xpath.NodeSet
	scalar  *xmltree.Node
	i       int
}

func (it *pathIter) next() (*xmltree.Node, error) {
	if !it.started {
		it.started = true
		val, err := evalToValue(it.p, it.ctx)
		if err != nil {
			return nil, err
		}
		if ns, ok := val.(xpath.NodeSet); ok {
			it.ns = ns
		} else {
			it.scalar = xmltree.NewText(val.Str())
		}
	}
	if it.scalar != nil {
		n := it.scalar
		it.scalar = nil
		return n, nil
	}
	if it.i >= len(it.ns) {
		return nil, nil
	}
	n := it.ns[it.i]
	it.i++
	switch {
	case n.Kind == xmltree.AttrNode:
		return xmltree.NewText(n.Text), nil
	case it.own:
		return xmltree.DeepCopy(n), nil
	}
	return n, nil
}

// seqIter concatenates the item iterators lazily.
type seqIter struct {
	items []Expr
	ctx   *evalCtx
	own   bool
	cur   rowIter
	i     int
}

func (it *seqIter) next() (*xmltree.Node, error) {
	for {
		if it.cur == nil {
			if it.i >= len(it.items) {
				return nil, nil
			}
			it.cur = exprIter(it.items[it.i], it.ctx, it.own)
			it.i++
		}
		n, err := it.cur.next()
		if err != nil {
			return nil, err
		}
		if n != nil {
			return n, nil
		}
		it.cur = nil
	}
}

// flwrIter streams a FLWR: its binding tuples — straight off the clause
// odometer, or, under an order by, the odometer drained and sorted on
// the first pull — crossed with a per-tuple iterator over the return
// expression's forest.
type flwrIter struct {
	f       *FLWR
	started bool
	tuples  lazyTuples
	sorted  []*evalCtx // order by only: the tuples still to come
	own     bool
	cur     rowIter
}

func (it *flwrIter) nextTuple() (*evalCtx, error) {
	if it.f.Order == nil {
		return it.tuples.next()
	}
	if !it.started {
		// Order by is a pipeline breaker: every tuple is needed before
		// the first row can leave. The return expression stays lazy.
		it.started = true
		tuples, err := collectTuples(&it.tuples)
		if err == nil {
			it.sorted, err = sortTuples(it.f, tuples)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(it.sorted) == 0 {
		return nil, nil
	}
	tup := it.sorted[0]
	it.sorted = it.sorted[1:]
	return tup, nil
}

func (it *flwrIter) next() (*xmltree.Node, error) {
	for {
		if it.cur != nil {
			n, err := it.cur.next()
			if err != nil {
				return nil, err
			}
			if n != nil {
				return n, nil
			}
			it.cur = nil
		}
		tup, err := it.nextTuple()
		if tup == nil {
			return nil, err
		}
		it.cur = exprIter(it.f.Return, tup, it.own)
	}
}

// lazyTuples is the pull-based clause odometer: one frame per clause,
// the deepest for-frame advances first, and a frame whose node-set is
// spent pops so its parent can advance. For-sources and let-values are
// evaluated once per parent tuple; the where filter runs per candidate
// on pull.
type lazyTuples struct {
	f       *FLWR
	base    *evalCtx
	frames  []tframe
	started bool
	done    bool
}

type tframe struct {
	ctx *evalCtx // the partial tuple up to and including this clause
	// The rest is for-clause state; a let frame is never advanced.
	ns      xpath.NodeSet // candidates
	idx     int
	varName string
}

func (t *lazyTuples) parent() *evalCtx {
	if len(t.frames) == 0 {
		return t.base
	}
	return t.frames[len(t.frames)-1].ctx
}

// bindFor binds frame fr's candidate fr.idx in a scope of its own
// under parent.
func (fr *tframe) bindFor(parent *evalCtx) {
	fr.ctx = parent.with(fr.varName, xpath.NodeSet{fr.ns[fr.idx]})
}

// step advances the deepest for-frame, popping spent frames. It
// reports whether another binding combination exists.
func (t *lazyTuples) step() bool {
	for len(t.frames) > 0 {
		fr := &t.frames[len(t.frames)-1]
		if fr.idx+1 < len(fr.ns) {
			fr.idx++
			parent := t.base
			if len(t.frames) > 1 {
				parent = t.frames[len(t.frames)-2].ctx
			}
			fr.bindFor(parent)
			return true
		}
		t.frames = t.frames[:len(t.frames)-1]
	}
	return false
}

// next returns the next binding tuple the where clause accepts, nil
// when there is none. A failure ends the stream.
func (t *lazyTuples) next() (*evalCtx, error) {
	if t.done {
		return nil, nil
	}
	tup, err := t.scan()
	// A clause-less body yields exactly one tuple.
	t.done = tup == nil || len(t.f.Clauses) == 0
	return tup, err
}

// scan examines candidate tuples until the where clause accepts one. A
// scan that rejects everything still stops when its consumer does: it
// looks at the context every cancelCheckEvery candidates.
func (t *lazyTuples) scan() (*evalCtx, error) {
	ev := t.base.ev
	advance := t.started
	t.started = true
candidates:
	for {
		if ev.scanned++; ev.scanned%cancelCheckEvery == 0 {
			if err := ev.canceled(); err != nil {
				return nil, err
			}
		}
		if advance && !t.step() {
			return nil, nil
		}
		advance = true
		// Fill the remaining clauses under the current partial tuple.
		for len(t.frames) < len(t.f.Clauses) {
			cur := t.parent()
			switch cl := t.f.Clauses[len(t.frames)].(type) {
			case ForClause:
				val, err := evalToValue(cl.Source, cur)
				if err != nil {
					return nil, err
				}
				ns, ok := val.(xpath.NodeSet)
				if !ok {
					return nil, errf("for $%s: source is not a node sequence (got %T)", cl.Var, val)
				}
				if len(ns) == 0 {
					continue candidates
				}
				fr := tframe{ns: ns, varName: cl.Var}
				fr.bindFor(cur)
				t.frames = append(t.frames, fr)
			case LetClause:
				val, err := evalToValue(cl.Source, cur)
				if err != nil {
					return nil, err
				}
				t.frames = append(t.frames, tframe{ctx: cur.with(cl.Var, val)})
			default:
				return nil, errf("unknown clause type %T", cl)
			}
		}
		tup := t.parent()
		if t.f.Where != nil {
			v, err := evalToValue(t.f.Where, tup)
			if err != nil {
				return nil, err
			}
			if !v.Bool() {
				continue
			}
		}
		return tup, nil
	}
}
