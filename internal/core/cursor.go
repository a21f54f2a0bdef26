package core

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"

	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/xmltree"
)

// Row is one tree of a result stream: the tree itself, or the compact
// XML encoding a peer shipped it in, parsed only when the tree is read.
// A row of a pinned epoch carries its published root's memo budget,
// so its stored node keeps its first encoding (xmltree.AppendStored).
// The zero Row marks the end of a stream.
type Row struct {
	node   *xmltree.Node
	enc    []byte
	parses *atomic.Int64  // counts the parse of enc: System.ReplyParses
	memo   xmltree.Budget // the published root's, for a node of a pinned epoch
}

// NodeRow is the row holding tree n; NodeRow(nil) is the zero Row.
func NodeRow(n *xmltree.Node) Row { return Row{node: n} }

// IsZero reports whether r is the zero Row: no row, the end of a
// stream.
func (r Row) IsZero() bool { return r.node == nil && r.enc == nil }

// Node returns the row's tree, parsing an encoded row the first time
// it is read and keeping the tree in r. The tree is read-only, as a
// RowCursor's rows are.
func (r *Row) Node() (*xmltree.Node, error) {
	if r.node == nil && r.enc != nil {
		if r.parses != nil {
			r.parses.Add(1)
		}
		n, err := xmltree.Parse(string(r.enc))
		if err != nil {
			return nil, fmt.Errorf("core: parsing a row: %w", err)
		}
		r.node = n
	}
	return r.node, nil
}

// AppendLine appends the row to dst as xmltree.AppendLine writes its
// tree: an encoded row that holds no CR or LF is copied as it stands,
// any other row is written from its tree, or fails with
// xmltree.ErrLineBreak when no line can carry it.
func (r *Row) AppendLine(dst []byte) ([]byte, error) {
	if r.enc != nil && bytes.IndexByte(r.enc, '\n') < 0 && bytes.IndexByte(r.enc, '\r') < 0 {
		return append(dst, r.enc...), nil
	}
	n, err := r.Node()
	if err != nil {
		return dst, err
	}
	return xmltree.AppendStored(dst, n, r.memo, true)
}

// appendTo appends the row to dst as xmltree.Append writes its tree:
// an encoded row is copied as it stands.
func (r Row) appendTo(dst []byte) []byte {
	if r.enc != nil {
		return append(dst, r.enc...)
	}
	dst, _ = xmltree.AppendStored(dst, r.node, r.memo, false) // only a line can fail
	return dst
}

// RowCursor streams an expression's result forest one row per pull.
// For a query application evaluated at the cursor's own peer the rows
// are produced lazily (internal/xquery's pull-based evaluator): the
// first row is available after O(source scan + one row) of work, while
// the remaining evaluation happens as the consumer pulls. A delegated
// evaluation (eval@p at another peer) ships its whole forest back
// across netsim, as the distribution model requires, and the cursor
// hands out the reply's rows still encoded: a row is parsed only when
// its tree is read, so a row passed on to a client or to a further
// peer is never parsed. The data peer that answers the delegation
// drains one of these cursors straight into its reply.
//
// A row is read-only: it may be a node of the pinned, immutable
// document the query read. A consumer that keeps or attaches a row
// deep-copies it first; the drains inside System.Eval open owned
// cursors instead.
//
// Next returns (nil, nil) at end of stream. Close abandons the
// remaining evaluation; both are idempotent. VT reports the virtual
// completion time: for a lazily-evaluated query it is only final once
// the cursor is exhausted or closed (the compute cost depends on how
// many output nodes were actually produced — an abandoned cursor
// charges only the rows it yielded).
type RowCursor struct {
	nextFn func() (Row, error) // nil once exhausted or closed
	endFn  func() float64      // run once when the stream ends: the final VT
	vt     float64
	err    error
}

// NextRow returns the next row, or the zero Row when the stream is
// exhausted. Errors are sticky.
func (c *RowCursor) NextRow() (Row, error) {
	if c.err != nil || c.nextFn == nil {
		return Row{}, c.err
	}
	r, err := c.nextFn()
	if err != nil {
		c.err = err
		return Row{}, err
	}
	if r.IsZero() {
		_ = c.Close()
	}
	return r, nil
}

// Next returns the next result tree, or (nil, nil) when the stream is
// exhausted: NextRow's row, read. Errors are sticky.
func (c *RowCursor) Next() (*xmltree.Node, error) {
	r, err := c.NextRow()
	if err != nil {
		return nil, err
	}
	n, err := r.Node()
	if err != nil {
		c.err = err
		_ = c.Close()
	}
	return n, err
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
// lazily; an evaluation delegated to another peer streams the rows of
// its reply still encoded; every other expression form is evaluated to
// its forest first and the forest streamed afterwards — identical rows,
// no latency win.
func (s *System) EvalCursorContext(ctx context.Context, at netsim.PeerID, e Expr) (*RowCursor, error) {
	return s.evalCursor(ctx, at, e, 0)
}

// evalCursor is EvalCursorContext starting at virtual time vt.
func (s *System) evalCursor(ctx context.Context, at netsim.PeerID, e Expr, vt float64) (*RowCursor, error) {
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
	switch v := e.(type) {
	case *Query:
		return s.queryCursor(ctx, p, v, vt, false)
	case *EvalAt:
		reply, doneVT, err := s.delegateReply(ctx, at, v.At, v.E, vt)
		if err != nil {
			return nil, err
		}
		if rows, ok := cutForest(reply); ok {
			return encodedCursor(rows, doneVT, &s.replyParses), nil
		}
		forest, err := s.parseForest(reply)
		if err != nil {
			return nil, err
		}
		return forestCursor(&Result{Forest: forest, VT: doneVT}), nil
	}
	res, err := s.eval(ctx, at, e, vt)
	if err != nil {
		return nil, err
	}
	return forestCursor(res), nil
}

// queryCursor opens a lazy cursor over a query application starting at
// virtual time vt: arguments and a remotely-defined query text are
// fetched eagerly (they ship whole), then the body evaluates pull by
// pull. Compute cost is charged when the stream ends — in full on
// exhaustion, pro rata for the yielded rows when abandoned. With own
// set every row is a tree of its own (xquery.OwnedCursor); otherwise
// rows may be read-only document nodes.
func (s *System) queryCursor(ctx context.Context, p *peer.Peer, q *Query, vt float64, own bool) (*RowCursor, error) {
	run, err := s.prepareQuery(ctx, p, q, vt)
	if err != nil {
		return nil, err
	}
	open := q.Q.EvalCursor
	if own {
		open = q.Q.OwnedCursor
	}
	cur, err := open(ctx, run.env, run.args...)
	if err != nil {
		run.release()
		return nil, err
	}
	rc := &RowCursor{}
	outNodes := 0
	rc.nextFn = func() (Row, error) {
		n, err := cur.Next()
		if n != nil {
			outNodes += n.NodeCount()
		}
		return Row{node: n, memo: run.memo}, wrapCanceled(ctx, err)
	}
	rc.endFn = func() float64 {
		_ = cur.Close()
		return run.finish(outNodes)
	}
	return rc, nil
}

// forestCursor wraps an already-computed result as a cursor.
func forestCursor(res *Result) *RowCursor {
	return readyCursor(len(res.Forest), func(i int) Row { return NodeRow(res.Forest[i]) }, res.VT)
}

// encodedCursor streams the encoded rows of a reply that completed at
// virtual time vt; parses counts the rows parsed when read.
func encodedCursor(rows [][]byte, vt float64, parses *atomic.Int64) *RowCursor {
	return readyCursor(len(rows), func(i int) Row { return Row{enc: rows[i], parses: parses} }, vt)
}

// readyCursor streams n rows that are already at hand, row(i) the i-th,
// of a result that completed at virtual time vt.
func readyCursor(n int, row func(i int) Row, vt float64) *RowCursor {
	i := 0
	return &RowCursor{
		vt: vt,
		nextFn: func() (Row, error) {
			if i >= n {
				return Row{}, nil
			}
			i++
			return row(i - 1), nil
		},
	}
}
