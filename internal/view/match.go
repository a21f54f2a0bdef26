// View matching: a conservative syntactic containment check in the
// tradition of answering-queries-using-views, restricted to shapes the
// FLWR language makes cheap to recognize. A view
//
//	for $v in doc("d")/s1/…/sk where C1 and … and Cm return $v
//
// (or the full-copy form `doc("d")`) subsumes a query
//
//	for $x in doc("d")/s1/…/sk/…/sn where D1 and … and Dl … return R
//
// when the query's source path extends the view's (path-prefix match)
// and every view conjunct Ci is implied by some query conjunct Dj
// (weaker-or-equal predicate: identical, or a strictly tighter numeric
// bound on the same path). The rewriting re-roots the query's first
// for clause on the view document, drops the query conjuncts the view
// already applied, and keeps everything else verbatim.
//
// Soundness relies on the view storing deep copies of the matched
// subtrees: any rewritten navigation must stay inside them, so queries
// using upward or sibling axes anywhere are rejected.
//
// Both sides are read by xquery's selection analysis (xquery.Select),
// as are the plan-cache key below and rule (11)'s pushdown.
package view

import (
	"slices"
	"strings"

	"axml/internal/xpath"
	"axml/internal/xquery"
)

// QueryKey returns the normalized shape key of a query, the cache key
// of the session plan cache. It builds on the same conjunct analysis
// the view matcher uses: a FLWR query's where clause is split into its
// top-level conjuncts (Selection.Predicate) and re-joined in sorted
// order, so queries that differ only in conjunct order — `where $a and $b` vs
// `where $b and $a` — share one cached plan. Everything else falls
// back to the canonical re-rendered source (String round-trips through
// the parser, so whitespace and formatting differences also collapse).
func QueryKey(q *xquery.Query) string {
	sel, ok := xquery.Select(q.Body)
	if !ok {
		return q.String()
	}
	conjuncts, ok := sel.Predicate()
	if !ok || len(conjuncts) < 2 {
		return q.String()
	}
	// Each conjunct renders once, for the sort.
	type keyed struct {
		text string
		x    xpath.Expr
	}
	byText := make([]keyed, len(conjuncts))
	for i, c := range conjuncts {
		byText[i] = keyed{c.String(), c}
	}
	slices.SortStableFunc(byText, func(a, b keyed) int { return strings.Compare(a.text, b.text) })
	for i, k := range byText {
		conjuncts[i] = k.x
	}
	return (&xquery.Query{Params: q.Params, Body: sel.With(nil, conjuncts)}).String()
}

// shape is the normalized matchable form of a view definition.
type shape struct {
	doc       string
	forVar    string
	steps     []xpath.Step // child-axis name-test steps, no predicates
	conjuncts []xpath.Expr // where conjuncts, each over forVar only
	whole     bool         // bare doc("d"): full document copy
}

// viewShape normalizes a view query; ok is false when the shape is not
// matchable (the view still materializes, it just cannot accelerate
// other queries).
func viewShape(q *xquery.Query) (*shape, bool) {
	if q.Arity() != 0 {
		return nil, false
	}
	switch body := q.Body.(type) {
	case *xquery.Path:
		doc, steps, ok := body.DocSteps()
		if !ok || !xpath.PlainNameSteps(steps) {
			return nil, false
		}
		return &shape{doc: doc, steps: steps, whole: len(steps) == 0}, true
	case *xquery.FLWR:
		sel, _ := xquery.Select(body)
		if sel.At != 0 || len(body.Clauses) != 1 || body.Order != nil || !sel.ReturnsVar() {
			return nil, false
		}
		doc, steps, ok := sel.DocSteps()
		if !ok || len(steps) == 0 || !xpath.PlainNameSteps(steps) {
			return nil, false
		}
		conjuncts, ok := sel.Predicate()
		if !ok {
			return nil, false
		}
		for _, c := range conjuncts {
			if !xquery.ReadsOnly(c, sel.For.Var) || !xpath.DownwardOnly(c) {
				return nil, false
			}
		}
		return &shape{doc: doc, forVar: sel.For.Var, steps: steps, conjuncts: conjuncts}, true
	default:
		return nil, false
	}
}

// rewrite attempts to answer q from the view; it returns the rewritten
// query reading viewDoc, or ok=false when the view does not provably
// subsume q.
func (v *shape) rewrite(viewDoc string, q *xquery.Query) (*xquery.Query, bool) {
	// A later clause that binds the for variable again makes the where
	// read another variable than the view filtered.
	sel, ok := xquery.Select(q.Body)
	if q.Arity() != 0 || !ok || sel.At != 0 || sel.Rebound() {
		return nil, false
	}
	doc, steps, ok := sel.DocSteps()
	if !ok || doc != v.doc || len(steps) < len(v.steps) {
		return nil, false
	}
	for i, vs := range v.steps {
		if vs.String() != steps[i].String() {
			return nil, false
		}
	}
	// The rewritten query navigates inside stored subtree copies; any
	// upward or sibling axis or absolute path could observe
	// surroundings the view did not materialize.
	if !q.DownwardOnly() {
		return nil, false
	}

	// Predicate containment: every view conjunct must be implied by a
	// query conjunct, else the view may be missing rows q needs.
	qConjuncts, ok := sel.Predicate()
	if !ok {
		return nil, false
	}
	forVar := sel.For.Var
	var applied []string // the view's conjuncts, over forVar
	for _, vc := range v.conjuncts {
		vcq := renameVar(vc, v.forVar, forVar)
		if !slices.ContainsFunc(qConjuncts, func(qc xpath.Expr) bool {
			return xquery.ReadsOnly(qc, forVar) && implies(qc, vcq)
		}) {
			return nil, false
		}
		applied = append(applied, vcq.String())
	}
	// A query conjunct the view already applied goes.
	kept := slices.DeleteFunc(qConjuncts, func(qc xpath.Expr) bool {
		return xquery.ReadsOnly(qc, forVar) && slices.Contains(applied, qc.String())
	})

	// Re-root the source on the view document. A wrapper view stores
	// the nodes matched by its last step as children of the view root,
	// so that step repeats; a full-copy view stores the document root
	// itself, so the whole path carries over.
	newSteps := steps
	if !v.whole {
		newSteps = append([]xpath.Step{steps[len(v.steps)-1]}, steps[len(v.steps):]...)
	}
	return &xquery.Query{Body: sel.With(xquery.DocPath(viewDoc, newSteps...), kept)}, true
}

// renameVar rebuilds e with variable `from` renamed to `to`.
func renameVar(e xpath.Expr, from, to string) xpath.Expr {
	switch v := e.(type) {
	case xpath.VarRef:
		if string(v) == from {
			return xpath.VarRef(to)
		}
		return v
	case *xpath.PathExpr:
		out := &xpath.PathExpr{Absolute: v.Absolute}
		if v.Filter != nil {
			out.Filter = renameVar(v.Filter, from, to)
		}
		for _, p := range v.Preds {
			out.Preds = append(out.Preds, renameVar(p, from, to))
		}
		for _, s := range v.Steps {
			ns := xpath.Step{Axis: s.Axis, Test: s.Test}
			for _, p := range s.Preds {
				ns.Preds = append(ns.Preds, renameVar(p, from, to))
			}
			out.Steps = append(out.Steps, ns)
		}
		return out
	case *xpath.BinaryExpr:
		return &xpath.BinaryExpr{Op: v.Op, L: renameVar(v.L, from, to), R: renameVar(v.R, from, to)}
	case *xpath.UnionExpr:
		out := &xpath.UnionExpr{}
		for _, p := range v.Paths {
			out.Paths = append(out.Paths, renameVar(p, from, to))
		}
		return out
	case *xpath.NegExpr:
		return &xpath.NegExpr{X: renameVar(v.X, from, to)}
	case *xpath.FuncCall:
		out := &xpath.FuncCall{Name: v.Name}
		for _, a := range v.Args {
			out.Args = append(out.Args, renameVar(a, from, to))
		}
		return out
	default:
		return e
	}
}

// implies reports whether conjunct q implies conjunct v (q ⊆ v as node
// filters): identical conjuncts, or comparisons of the same path
// against numeric literals where q's bound is at least as tight.
func implies(q, v xpath.Expr) bool {
	if q.String() == v.String() {
		return true
	}
	qb, ok1 := q.(*xpath.BinaryExpr)
	vb, ok2 := v.(*xpath.BinaryExpr)
	if !ok1 || !ok2 {
		return false
	}
	qn, ok1 := qb.R.(xpath.NumberLit)
	vn, ok2 := vb.R.(xpath.NumberLit)
	if !ok1 || !ok2 || qb.L.String() != vb.L.String() {
		return false
	}
	a, b := float64(qn), float64(vn)
	switch vb.Op {
	case "<":
		switch qb.Op {
		case "<":
			return a <= b
		case "<=", "=":
			return a < b
		}
	case "<=":
		switch qb.Op {
		case "<", "<=", "=":
			return a <= b
		}
	case ">":
		switch qb.Op {
		case ">":
			return a >= b
		case ">=", "=":
			return a > b
		}
	case ">=":
		switch qb.Op {
		case ">", ">=", "=":
			return a >= b
		}
	}
	return false
}

// Rewrite returns the rewritings of q over every view that subsumes
// it, in view-name order. Candidates read the view document; callers
// (the optimizer rule) price them against the original plan.
func (m *Manager) Rewrite(q *xquery.Query) []*xquery.Query {
	var out []*xquery.Query
	for _, name := range m.names() {
		st, ok := m.lookup(name)
		if !ok || st.shape == nil {
			continue
		}
		if rw, ok := st.shape.rewrite(st.def.DocName(), q); ok {
			out = append(out, rw)
		}
	}
	return out
}
