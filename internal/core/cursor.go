package core

import (
	"context"
	"fmt"

	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/xmltree"
)

// RowCursor streams an expression's result forest one tree per pull.
// For a query application evaluated at the cursor's own peer the rows
// are produced lazily (internal/xquery's pull-based evaluator): the
// first row is available after O(source scan + one row) of work, while
// the remaining evaluation happens as the consumer pulls. Delegated
// sub-evaluations — arguments, remote documents, eval@p fragments —
// still ship whole forests across netsim, as the distribution model
// requires, but are evaluated the same way: System.Eval, at whichever
// peer, drains one of these under the caller's context.
//
// Next returns (nil, nil) at end of stream. Close abandons the
// remaining evaluation; both are idempotent. VT reports the virtual
// completion time: for a lazily-evaluated query it is only final once
// the cursor is exhausted or closed (the compute cost depends on how
// many output nodes were actually produced — an abandoned cursor
// charges only the rows it yielded).
type RowCursor struct {
	nextFn func() (*xmltree.Node, error) // nil once exhausted or closed
	endFn  func() float64                // run once when the stream ends: the final VT
	vt     float64
	err    error
}

// Next returns the next result tree, or (nil, nil) when the stream is
// exhausted. Errors are sticky.
func (c *RowCursor) Next() (*xmltree.Node, error) {
	if c.err != nil || c.nextFn == nil {
		return nil, c.err
	}
	n, err := c.nextFn()
	if err != nil {
		c.err = err
		return nil, err
	}
	if n == nil {
		_ = c.Close()
	}
	return n, nil
}

// Close abandons the remaining evaluation. Safe to call at any point,
// any number of times.
func (c *RowCursor) Close() error {
	if c.nextFn != nil {
		c.nextFn = nil
		if c.endFn != nil {
			c.vt = c.endFn()
		}
	}
	return nil
}

// VT returns the virtual completion time. Final once the cursor is
// exhausted (Next returned nil) or closed.
func (c *RowCursor) VT() float64 { return c.vt }

// EvalCursor is Eval returning a pull-based row stream instead of a
// materialized forest.
func (s *System) EvalCursor(at netsim.PeerID, e Expr) (*RowCursor, error) {
	return s.EvalCursorContext(context.Background(), at, e)
}

// EvalCursorContext evaluates e at peer at, streaming the result
// forest row by row. The context is checked on every pull and inside
// long tuple scans, so a consumer that cancels mid-stream stops the
// evaluation where it stands. Query applications local to at evaluate
// lazily; every other expression form (and any query a local eval@at
// wrapper does not reduce to) is evaluated to its forest first and the
// forest streamed afterwards — identical rows, no latency win.
func (s *System) EvalCursorContext(ctx context.Context, at netsim.PeerID, e Expr) (*RowCursor, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p, ok := s.Peer(at)
	if !ok {
		return nil, fmt.Errorf("core: unknown peer %q", at)
	}
	// Local delegation wrappers change nothing about where the work
	// happens — unwrap them so the composition stays lazy.
	for {
		if ea, ok := e.(*EvalAt); ok && ea.At == at {
			e = ea.E
			continue
		}
		break
	}
	if q, ok := e.(*Query); ok {
		return s.queryCursor(ctx, p, q, 0)
	}
	res, err := s.eval(ctx, at, e, 0)
	if err != nil {
		return nil, err
	}
	return forestCursor(res), nil
}

// queryCursor opens a lazy cursor over a query application starting at
// virtual time vt: arguments and a remotely-defined query text are
// fetched eagerly (they ship whole), then the body evaluates pull by
// pull. Compute cost is charged when the stream ends — in full on
// exhaustion, pro rata for the yielded rows when abandoned.
func (s *System) queryCursor(ctx context.Context, p *peer.Peer, q *Query, vt float64) (*RowCursor, error) {
	run, err := s.prepareQuery(ctx, p, q, vt)
	if err != nil {
		return nil, err
	}
	cur, err := q.Q.EvalCursor(ctx, run.env, run.args...)
	if err != nil {
		run.release()
		return nil, err
	}
	rc := &RowCursor{}
	outNodes := 0
	rc.nextFn = func() (*xmltree.Node, error) {
		n, err := cur.Next()
		if n != nil {
			outNodes += n.NodeCount()
		}
		return n, wrapCanceled(ctx, err)
	}
	rc.endFn = func() float64 {
		_ = cur.Close()
		return run.finish(outNodes)
	}
	return rc, nil
}

// forestCursor wraps an already-computed result as a cursor.
func forestCursor(res *Result) *RowCursor {
	i := 0
	return &RowCursor{
		vt: res.VT,
		nextFn: func() (*xmltree.Node, error) {
			if i >= len(res.Forest) {
				return nil, nil
			}
			n := res.Forest[i]
			i++
			return n, nil
		},
	}
}
