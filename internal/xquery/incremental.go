package xquery

import (
	"maps"

	"axml/internal/xmltree"
	"axml/internal/xpath"
)

// Continuous query evaluation (paper §2.2: "all services are
// continuous"; §3.2: definition (2) generalized to streams). Two
// strategies are provided:
//
//   - Recompute: re-evaluate the whole query on every input change and
//     diff against the already-emitted multiset (the baseline).
//   - DeltaFor: for single-for queries, track delta provenance per
//     source node (node-id lineage) and evaluate the body only for
//     sources that appeared or changed since the last call.
//
// Positive AXML makes incremental evaluation sound only for monotone,
// insertion-only streams, which is what Recompute emits; DeltaFor goes
// beyond that fragment by also emitting *retractions* — withdrawals of
// previously emitted results — when a source node is deleted or updated
// in place (DeltaEvents), so view maintenance stays correct under
// general updates. Experiment E7 compares the strategies on insert-only
// streams; E12 measures provenance-based maintenance under churn.

// Lineage identifies one source node for delta provenance. Nodes of
// installed documents are identified by their peer-stable NodeID;
// detached trees (ID 0, as in unit tests) fall back to pointer
// identity. Lineage values are comparable and used as map keys.
type Lineage struct {
	ID  xmltree.NodeID
	ptr *xmltree.Node
}

// LineageOf returns the provenance key of a source node.
func LineageOf(n *xmltree.Node) Lineage {
	if n.ID != 0 {
		return Lineage{ID: n.ID}
	}
	return Lineage{ptr: n}
}

// Derivation couples one source node's lineage with the result trees
// its body evaluation produced.
type Derivation struct {
	Source  Lineage
	Results []*xmltree.Node
}

// Events is the output of a retraction-aware delta step: Retractions
// name sources whose previously emitted results must be withdrawn
// (deleted or updated-in-place sources); Additions carry newly derived
// results, keyed by the source that produced them. An in-place update
// appears as a retraction and an addition of the same lineage — apply
// retractions first.
type Events struct {
	Additions   []Derivation
	Retractions []Lineage
}

// Empty reports whether the delta step produced no work.
func (e *Events) Empty() bool { return len(e.Additions) == 0 && len(e.Retractions) == 0 }

// AddedTrees flattens the addition results in derivation order.
func (e *Events) AddedTrees() []*xmltree.Node {
	var out []*xmltree.Node
	for _, d := range e.Additions {
		out = append(out, d.Results...)
	}
	return out
}

// Recompute is the diff-based continuous evaluator.
type Recompute struct {
	q    *Query
	env  *Env
	args [][]*xmltree.Node
	seen map[xmltree.Digest]int
}

// NewRecompute creates a continuous evaluator over fixed arguments.
// The underlying documents (reached through env's resolver) may change
// between Delta calls.
func NewRecompute(q *Query, env *Env, args ...[]*xmltree.Node) *Recompute {
	return &Recompute{q: q, env: env, args: args, seen: map[xmltree.Digest]int{}}
}

// Delta re-evaluates the query and returns only results not emitted
// before (multiset semantics: if a result tree now occurs more often
// than previously emitted, the extra occurrences are returned). The
// emitted multiset never shrinks: this is the monotone stream of the
// paper's continuous services.
func (r *Recompute) Delta() ([]*xmltree.Node, error) {
	full, err := r.q.Eval(r.env, r.args...)
	if err != nil {
		return nil, err
	}
	counts := map[xmltree.Digest]int{}
	var out []*xmltree.Node
	for _, n := range full {
		d := xmltree.Hash(n)
		counts[d]++
		if counts[d] > r.seen[d] {
			out = append(out, n)
		}
	}
	for d, c := range counts {
		if c > r.seen[d] {
			r.seen[d] = c
		}
	}
	return out, nil
}

// derivation is the per-source provenance record: the canonical digest
// of the source subtree when its results were derived (so in-place
// updates are detected), and how many result trees it produced.
type derivation struct {
	digest  xmltree.Digest
	results int
}

// DeltaFor is the incremental evaluator for single-for queries: it
// tracks delta provenance — which source nodes have been processed,
// identified by node-id lineage — and evaluates the where/return only
// for new or changed ones. It requires the query body to be a FLWR
// whose first clause is the only for clause, ranging over a path
// (additional let clauses are allowed; additional for clauses are not).
type DeltaFor struct {
	env    *Env
	forVar string
	source *Path
	rest   *FLWR // body with the leading for clause removed
	// derived maps each processed source node to its provenance record.
	// Unlike the visited-set of the Positive-AXML fragment, entries are
	// withdrawn when their source disappears, so deletions retract
	// exactly the results they produced.
	derived map[Lineage]derivation
	// prev snapshots derived at the start of the most recent delta
	// call, so a caller whose delivery failed can Rollback and have
	// the same events re-emitted next time.
	prev map[Lineage]derivation
}

// NewDeltaFor creates the incremental evaluator. ok is false when the
// query shape is unsupported (fall back to Recompute).
func NewDeltaFor(q *Query, env *Env) (*DeltaFor, bool) {
	f, isFLWR := q.Body.(*FLWR)
	if !isFLWR || len(q.Params) != 0 {
		return nil, false
	}
	forCount := 0
	var first ForClause
	for _, c := range f.Clauses {
		if fc, isFor := c.(ForClause); isFor {
			forCount++
			first = fc
		}
	}
	if forCount != 1 {
		return nil, false
	}
	if _, isFirst := f.Clauses[0].(ForClause); !isFirst {
		return nil, false
	}
	src, isPath := first.Source.(*Path)
	if !isPath {
		return nil, false
	}
	rest := &FLWR{
		Clauses: f.Clauses[1:],
		Where:   f.Where,
		Order:   f.Order,
		Return:  f.Return,
	}
	return &DeltaFor{
		env:     env,
		forVar:  first.Var,
		source:  src,
		rest:    rest,
		derived: map[Lineage]derivation{},
	}, true
}

// DeltaEvents is the retraction-aware delta step against the
// constructor's environment. See DeltaEventsWith.
func (d *DeltaFor) DeltaEvents() (*Events, error) { return d.DeltaEventsWith(d.env) }

// DeltaEventsWith evaluates one provenance-tracked delta step against
// env: the source path is re-evaluated and diffed against the recorded
// lineage. Sources seen for the first time derive additions; sources
// whose subtree digest changed retract their previous results and
// re-derive (exactly once); sources that disappeared retract theirs.
// The body is never evaluated for unchanged sources.
func (d *DeltaFor) DeltaEventsWith(env *Env) (ev *Events, retErr error) {
	ctx := newEvalCtx(nil, env)
	val, err := evalToValue(d.source, ctx)
	if err != nil {
		return nil, err
	}
	ns, ok := val.(xpath.NodeSet)
	if !ok {
		return nil, errf("for $%s: source is not a node sequence", d.forVar)
	}
	d.prev = maps.Clone(d.derived)
	// An evaluation error mid-batch must not consume the sources
	// already recorded, or their results would be lost forever.
	defer func() {
		if retErr != nil {
			d.Rollback()
		}
	}()
	ev = &Events{}
	current := make(map[Lineage]bool, len(ns))
	for _, n := range ns {
		k := LineageOf(n)
		if current[k] {
			continue // a path should not bind the same node twice
		}
		current[k] = true
		dg := xmltree.Hash(n)
		rec, seen := d.derived[k]
		if seen && rec.digest == dg {
			continue
		}
		if seen && rec.results > 0 {
			// In-place update: withdraw the stale results before
			// re-deriving, so the source contributes exactly once.
			ev.Retractions = append(ev.Retractions, k)
		}
		results, err := d.derive(ctx, n)
		if err != nil {
			return nil, err
		}
		ev.Additions = append(ev.Additions, Derivation{Source: k, Results: results})
		d.derived[k] = derivation{digest: dg, results: len(results)}
	}
	for k, rec := range d.derived {
		if current[k] {
			continue
		}
		if rec.results > 0 {
			ev.Retractions = append(ev.Retractions, k)
		}
		delete(d.derived, k)
	}
	return ev, nil
}

// derive evaluates the residual body with the for-variable bound to n.
// With no residual clause the body is one tuple: its where and return
// are evaluated directly, without a tuple source around them.
func (d *DeltaFor) derive(ctx *evalCtx, n *xmltree.Node) ([]*xmltree.Node, error) {
	tup := ctx.with(d.forVar, xpath.NodeSet{n})
	if len(d.rest.Clauses) == 0 && d.rest.Order == nil {
		if d.rest.Where != nil {
			v, err := evalToValue(d.rest.Where, tup)
			if err != nil {
				return nil, err
			}
			if !v.Bool() {
				return nil, nil
			}
		}
		return evalToForest(d.rest.Return, tup)
	}
	return evalToForest(d.rest, tup)
}

// Clone returns an independent evaluator with a copy of the current
// provenance state: deltas taken on the clone do not affect the
// original and vice versa. View placement migration uses it to carry
// the incremental state of a materialized copy to its new peer without
// re-deriving the full view at the base.
func (d *DeltaFor) Clone() *DeltaFor {
	return &DeltaFor{
		env:     d.env,
		forVar:  d.forVar,
		source:  d.source,
		rest:    d.rest,
		derived: maps.Clone(d.derived),
	}
}

// Rollback restores the provenance state to what it was before the
// most recent DeltaEvents/DeltaEventsWith call, so the same events are
// re-emitted on the next call. Callers whose downstream delivery of
// the delta failed use it to avoid losing those results.
func (d *DeltaFor) Rollback() {
	if d.prev != nil {
		d.derived = d.prev
		d.prev = nil
	}
}
