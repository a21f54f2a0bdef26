package session

import (
	"context"
	"fmt"
	"iter"

	"axml/internal/core"
	"axml/internal/xmltree"
)

// Rows streams a query's result forest, one tree at a time. Local
// sessions evaluate lazily: Next pulls the next row out of the
// evaluator on demand and Close abandons the remaining work, so a
// consumer that stops after N rows only ever paid for N rows. A row
// another peer answered stays in the encoding it arrived in until Node,
// Scan, All or Collect reads it, and is parsed once then; a row only
// written on (AppendLine) is never parsed. Wire sessions pull rows off
// the connection as Next advances (the server evaluates and streams
// incrementally on its side), so large results never materialize
// client-side.
//
// Two consumption styles are supported: the database/sql-style
// Next/Node/Scan loop,
//
//	for rows.Next() { use(rows.Node()) }
//	if err := rows.Err(); err != nil { … }
//
// and range-over-func iteration:
//
//	for n, err := range rows.All() { … }
//
// Close is idempotent and releases the backend (a wire session drains
// the remaining rows so the connection is reusable).
type Rows struct {
	// pull returns the next row; the zero row signals exhaustion.
	pull    func() (core.Row, error)
	closeFn func() error
	// abandon marks a backend whose remaining work should be dropped
	// on Close rather than drained (a lazily-evaluating cursor, where
	// draining would force the evaluation Close exists to skip).
	abandon bool
	// vtFn reports the backend's virtual completion time, when the
	// backend has one (local sessions over the simulated network).
	vtFn func() float64

	cur    core.Row
	err    error
	done   bool
	closed bool
}

// NewRows builds a Rows over a pull function. pull returns the zero
// row when exhausted; closeFn (optional) releases backend resources and
// runs exactly once. Close drains the remaining rows first — the right
// semantics for protocol-backed streams that must reach a terminator.
func NewRows(pull func() (core.Row, error), closeFn func() error) *Rows {
	return &Rows{pull: pull, closeFn: closeFn}
}

// NewCursorRows builds a Rows over a lazily-evaluating backend: Close
// abandons the remaining work (no drain) and closeFn releases the
// cursor. Rows.Close after N rows means only N rows were ever
// evaluated.
func NewCursorRows(pull func() (core.Row, error), closeFn func() error) *Rows {
	return &Rows{pull: pull, closeFn: closeFn, abandon: true}
}

// Next advances to the next result tree. It returns false at the end
// of the stream or on error; check Err afterwards.
func (r *Rows) Next() bool {
	if r.done || r.err != nil || r.closed {
		return false
	}
	row, err := r.pull()
	if err != nil {
		r.err = err
		r.done = true
		r.cur = core.Row{}
		return false
	}
	if row.IsZero() {
		r.done = true
		r.cur = core.Row{}
		return false
	}
	r.cur = row
	return true
}

// Node returns the current result tree (valid after a true Next). The
// tree is read-only: a local session may hand out a node of the stored
// document itself, and it stays valid after Close because published
// trees never change. DeepCopy it to own it — to change it, attach it
// to another tree or store it. A row that arrived encoded is parsed
// here, on its first read; if its bytes do not parse, Node returns nil,
// the stream ends and Err reports why.
func (r *Rows) Node() *xmltree.Node {
	n, err := r.cur.Node()
	if err != nil {
		r.fail(err)
	}
	return n
}

// AppendLine appends the current row to dst as xmltree.AppendLine
// writes its tree (valid after a true Next): a row that arrived encoded
// and holds no CR or LF is copied as it stands, unparsed. A row that
// fails to parse ends the stream as Node's does.
func (r *Rows) AppendLine(dst []byte) ([]byte, error) {
	dst, err := r.cur.AppendLine(dst)
	if err != nil {
		r.fail(err)
	}
	return dst, err
}

// fail ends the stream with err, keeping the first error.
func (r *Rows) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Scan copies the current row into dest: **xmltree.Node receives the
// tree itself (read-only, as Node's), *string its compact XML
// serialization. Like Node, it parses a row that arrived encoded, once.
func (r *Rows) Scan(dest any) error {
	if r.cur.IsZero() {
		return fmt.Errorf("session: Scan called without a current row")
	}
	n, err := r.cur.Node()
	if err != nil {
		r.fail(err)
		return err
	}
	switch d := dest.(type) {
	case **xmltree.Node:
		*d = n
		return nil
	case *string:
		*d = xmltree.Serialize(n)
		return nil
	default:
		return fmt.Errorf("session: unsupported Scan destination %T", dest)
	}
}

// Err returns the error that terminated iteration, if any. A closed or
// exhausted stream with no failure returns nil.
func (r *Rows) Err() error { return r.err }

// VT returns the virtual completion time of the evaluation in
// simulated milliseconds — the latency metric of the netsim cost
// model. It is final once the stream is exhausted or closed, and zero
// for backends without a virtual clock (wire sessions). Benchmarks use
// it to compare query latency across placements without depending on
// wall-clock noise.
func (r *Rows) VT() float64 {
	if r.vtFn == nil {
		return 0
	}
	return r.vtFn()
}

// Close releases the stream. For wire-backed rows this drains the
// remaining replies so the connection can carry the next request;
// cursor-backed rows (NewCursorRows) instead abandon the remaining
// evaluation.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.abandon {
		r.done = true
		r.cur = core.Row{}
		if r.closeFn != nil {
			return r.closeFn()
		}
		return nil
	}
	// Drain so that streaming backends reach their terminator.
	for !r.done && r.err == nil {
		row, err := r.pull()
		if err != nil {
			r.err = err
			break
		}
		if row.IsZero() {
			break
		}
	}
	r.done = true
	r.cur = core.Row{}
	if r.closeFn != nil {
		return r.closeFn()
	}
	return nil
}

// All returns a range-over-func iterator over the remaining rows. A
// stream failure is yielded as the final (nil, err) pair; the rows are
// closed when the iterator finishes or the consumer breaks.
func (r *Rows) All() iter.Seq2[*xmltree.Node, error] {
	return func(yield func(*xmltree.Node, error) bool) {
		defer r.Close()
		for r.Next() {
			n := r.Node()
			if n == nil {
				break
			}
			if !yield(n, nil) {
				return
			}
		}
		if err := r.Err(); err != nil {
			yield(nil, err)
		}
	}
}

// Collect drains the stream into a slice (convenience for callers that
// want the whole forest anyway) and closes it.
func (r *Rows) Collect() ([]*xmltree.Node, error) {
	var out []*xmltree.Node
	for r.Next() {
		out = append(out, r.Node())
	}
	err := r.Err()
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stmt is a prepared statement: one parsed-and-planned query bound to
// its session, repeatable without per-call planning work. Backends
// construct it via NewStmt with their own run closure.
type Stmt struct {
	src    string
	run    func(ctx context.Context, opts ...Option) (*Rows, error)
	closed bool
}

// NewStmt builds a statement handle over a backend's run closure.
func NewStmt(src string, run func(ctx context.Context, opts ...Option) (*Rows, error)) *Stmt {
	return &Stmt{src: src, run: run}
}

// Source returns the statement's query text.
func (s *Stmt) Source() string { return s.src }

// Query executes the prepared statement.
func (s *Stmt) Query(ctx context.Context, opts ...Option) (*Rows, error) {
	if s.closed {
		return nil, ErrClosed
	}
	return s.run(ctx, opts...)
}

// Close releases the statement.
func (s *Stmt) Close() error {
	s.closed = true
	return nil
}
