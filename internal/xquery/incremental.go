package xquery

import (
	"maps"
	"slices"

	"axml/internal/xmltree"
	"axml/internal/xpath"
)

// Continuous query evaluation (paper §2.2: "all services are
// continuous"; §3.2: definition (2) generalized to streams). DeltaFor
// evaluates a single-for query incrementally: it tracks delta
// provenance per source node (node-id lineage) and evaluates the body
// only for sources that appeared or changed since the last step. Both
// maintenance engines above it read it: a view placement applies its
// events as rows and retractions, a continuous call's stream ships the
// results by which the live multiset outgrows what it already shipped
// (core's streams).
//
// Positive AXML makes incremental evaluation sound only for monotone,
// insertion-only streams; DeltaFor goes beyond that fragment by also
// emitting *retractions* — withdrawals of previously emitted results —
// when a source node is deleted or updated in place, so view
// maintenance stays correct under general updates.

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
//
// It re-derives a source only when that source's own subtree changed,
// so it maintains a body correctly only if the body reads nothing
// outside the bound source; the constructor checks that.
type DeltaFor struct {
	q      *Query
	args   [][]*xmltree.Node
	forVar string
	source *Path
	rest   *FLWR // body with the leading for clause removed
	// chain holds the steps of a source of the form doc("d")/l1/…/lk
	// (child-axis name steps, no predicates; chained says the source has
	// that form, k may be 0). Only then does a commit's spine name the
	// sources it can have affected — the spine node at depth k — which
	// is what DeltaEventsFeed needs.
	chain   []xpath.Step
	chained bool
	// derived maps each processed source node to its provenance record.
	// Unlike the visited-set of the Positive-AXML fragment, entries are
	// withdrawn when their source disappears, so deletions retract
	// exactly the results they produced.
	derived map[Lineage]derivation
	// undo lists what the most recent delta step overwrote in derived,
	// so a caller whose delivery failed can Rollback and have the same
	// events re-emitted next time.
	undo []undone
}

// undone is one overwritten entry of DeltaFor.derived.
type undone struct {
	key Lineage
	rec derivation
	had bool
}

// NewDeltaFor creates the incremental evaluator of q applied to args
// (one forest per declared parameter, bound as Query.Eval binds them).
// ok is false when q is a shape it cannot maintain: the body must be a
// FLWR whose first clause is its only for clause, ranging over a path
// that reads one doc(); the rest of the body may read neither another
// doc() nor, anywhere, an upward or sideways axis or an absolute path
// (DownwardOnly), so it reads nothing outside the bound source.
func NewDeltaFor(q *Query, args [][]*xmltree.Node) (*DeltaFor, bool) {
	s, ok := Select(q.Body)
	if !ok || s.At != 0 || s.Source == nil || len(s.Source.Docs) != 1 ||
		len(args) != len(q.Params) || !q.DownwardOnly() {
		return nil, false
	}
	for _, c := range s.F.Clauses[1:] {
		if _, isFor := c.(ForClause); isFor {
			return nil, false
		}
	}
	rest := &FLWR{Clauses: s.F.Clauses[1:], Where: s.F.Where, Order: s.F.Order, Return: s.F.Return}
	if len((&Query{Body: rest}).DocRefs()) != 0 {
		return nil, false
	}
	d := &DeltaFor{
		q:       q,
		args:    args,
		forVar:  s.For.Var,
		source:  s.Source,
		rest:    rest,
		derived: map[Lineage]derivation{},
	}
	if _, steps, ok := s.DocSteps(); ok && xpath.PlainNameSteps(steps) {
		d.chain, d.chained = steps, true
	}
	return d, true
}

// DeltaEventsWith evaluates one provenance-tracked delta step against
// env: the source path is re-evaluated and diffed against the recorded
// lineage. Sources seen for the first time derive additions; sources
// whose subtree digest changed retract their previous results and
// re-derive (exactly once); sources that disappeared retract theirs.
// The body is never evaluated for unchanged sources.
func (d *DeltaFor) DeltaEventsWith(env *Env) (ev *Events, retErr error) {
	ctx := d.q.rootCtx(nil, env, d.args)
	val, err := evalToValue(d.source, ctx)
	if err != nil {
		return nil, err
	}
	ns, ok := val.(xpath.NodeSet)
	if !ok {
		return nil, errf("for $%s: source is not a node sequence", d.forVar)
	}
	d.undo = nil
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
		if err := d.examine(ctx, ev, n); err != nil {
			return nil, err
		}
	}
	for k := range d.derived {
		if !current[k] {
			d.retire(ev, k)
		}
	}
	return ev, nil
}

// DeltaEventsFeed is DeltaEventsWith for a caller that knows what was
// written: commits is the document's change feed from the state the
// recorded lineage reflects up to the state env resolves (every commit
// in between, oldest first). When the source is a chain of child name
// steps, the only sources a commit can have changed are the spine node
// at the chain's depth, or the subtree it added or removed when it
// wrote that node's parent; only those are looked up (by descending
// from the root along the commit's spine), hashed and re-derived,
// and the events equal the full diff's as multisets. Anything the feed
// does not bound — no commits (a feed that no longer reaches back to
// the recorded state), another source shape, a commit that names no
// subtree or wrote above the chain's depth — takes the full diff.
func (d *DeltaFor) DeltaEventsFeed(env *Env, commits []xmltree.Commit) (ev *Events, retErr error) {
	if !d.chained || len(commits) == 0 {
		return d.DeltaEventsWith(env)
	}
	ctx := d.q.rootCtx(nil, env, d.args)
	if err := ctx.bindDocs(d.source); err != nil {
		return nil, err
	}
	bound, _ := ctx.xc.Vars.Lookup(xpath.DocVar + d.source.Docs[0])
	root := bound.(xpath.NodeSet)[0]

	// touched holds, per source a commit may have changed, the
	// identifiers from the root down to it and the commit's positions
	// for them; the latest mention wins.
	type way struct {
		path []xmltree.NodeID
		pos  []int
	}
	depth := len(d.chain)
	var touched []way
	touch := func(path []xmltree.NodeID, pos []int) {
		for i, seen := range touched {
			if seen.path[depth] == path[depth] {
				touched[i] = way{path, pos}
				return
			}
		}
		touched = append(touched, way{path, pos})
	}
	for _, c := range commits {
		switch {
		case len(c.Spine) == 0 || c.Spine[0] != root.ID || len(c.Spine) < depth,
			c.Removed == 0 && c.Added == 0:
			return d.DeltaEventsWith(env)
		case len(c.Spine) > depth:
			touch(c.Spine[:depth+1], c.Pos)
		default: // wrote the child list of the sources' parent
			for _, id := range [2]xmltree.NodeID{c.Removed, c.Added} {
				if id != 0 {
					touch(append(c.Spine[:depth:depth], id), c.Pos)
				}
			}
		}
	}

	d.undo = nil
	defer func() {
		if retErr != nil {
			d.Rollback()
		}
	}()
	ev = &Events{}
	for _, w := range touched {
		n := root
		for i := 0; i < depth && n != nil; i++ {
			at := -1
			if i < len(w.pos) {
				at = w.pos[i]
			}
			n = chainChild(n, w.path[i+1], at, d.chain[i].Test.Name)
		}
		if n == nil {
			d.retire(ev, Lineage{ID: w.path[depth]})
		} else if err := d.examine(ctx, ev, n); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// chainChild returns the element child of n with the given identifier
// and label, or nil. It looks at position at first (where a commit saw
// the child) and scans n's children only when the child has moved.
func chainChild(n *xmltree.Node, id xmltree.NodeID, at int, label string) *xmltree.Node {
	var c *xmltree.Node
	if at >= 0 && at < len(n.Children) && n.Children[at].ID == id {
		c = n.Children[at]
	} else if i := slices.IndexFunc(n.Children, func(c *xmltree.Node) bool { return c.ID == id }); i >= 0 {
		c = n.Children[i]
	}
	if c == nil || c.Kind != xmltree.ElementNode || c.Label != label {
		return nil
	}
	return c
}

// examine brings the provenance of one bound source up to date: a new
// source derives additions, one whose digest changed retracts its
// previous results and re-derives, an unchanged one costs its hash.
func (d *DeltaFor) examine(ctx *evalCtx, ev *Events, n *xmltree.Node) error {
	k := LineageOf(n)
	dg := xmltree.Hash(n)
	rec, seen := d.derived[k]
	if seen && rec.digest == dg {
		return nil
	}
	if seen && rec.results > 0 {
		// In-place update: withdraw the stale results before
		// re-deriving, so the source contributes exactly once.
		ev.Retractions = append(ev.Retractions, k)
	}
	results, err := d.derive(ctx, n)
	if err != nil {
		return err
	}
	ev.Additions = append(ev.Additions, Derivation{Source: k, Results: results})
	d.undo = append(d.undo, undone{key: k, rec: rec, had: seen})
	d.derived[k] = derivation{digest: dg, results: len(results)}
	return nil
}

// retire withdraws a source the path no longer binds.
func (d *DeltaFor) retire(ev *Events, k Lineage) {
	rec, seen := d.derived[k]
	if !seen {
		return
	}
	if rec.results > 0 {
		ev.Retractions = append(ev.Retractions, k)
	}
	d.undo = append(d.undo, undone{key: k, rec: rec, had: true})
	delete(d.derived, k)
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
	c := *d
	c.derived, c.undo = maps.Clone(d.derived), nil
	return &c
}

// Rollback restores the provenance state to what it was before the
// most recent delta step, so the same events are re-emitted by the
// next one. Callers whose downstream delivery of the delta failed use
// it to avoid losing those results.
func (d *DeltaFor) Rollback() {
	for i := len(d.undo) - 1; i >= 0; i-- {
		if u := d.undo[i]; u.had {
			d.derived[u.key] = u.rec
		} else {
			delete(d.derived, u.key)
		}
	}
	d.undo = nil
}
