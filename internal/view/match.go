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
package view

import (
	"sort"

	"axml/internal/xpath"
	"axml/internal/xquery"
)

// QueryKey returns the normalized shape key of a query, the cache key
// of the session plan cache. It builds on the same conjunct analysis
// the view matcher uses: a FLWR query's where clause is split into its
// top-level conjuncts (splitAnd) and re-joined in sorted order, so
// queries that differ only in conjunct order — `where $a and $b` vs
// `where $b and $a` — share one cached plan. Everything else falls
// back to the canonical re-rendered source (String round-trips through
// the parser, so whitespace and formatting differences also collapse).
func QueryKey(q *xquery.Query) string {
	body, ok := q.Body.(*xquery.FLWR)
	if !ok || body.Where == nil {
		return q.String()
	}
	wp, ok := body.Where.(*xquery.Path)
	if !ok || len(wp.Docs) != 0 {
		return q.String()
	}
	conjuncts := splitAnd(wp.X)
	if len(conjuncts) < 2 {
		return q.String()
	}
	sorted := make([]xpath.Expr, len(conjuncts))
	copy(sorted, conjuncts)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].String() < sorted[j].String()
	})
	norm := &xquery.Query{Params: q.Params, Body: &xquery.FLWR{
		Clauses: body.Clauses,
		Where:   &xquery.Path{X: joinAnd(sorted)},
		Order:   body.Order,
		Return:  body.Return,
	}}
	return norm.String()
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
		if len(body.Clauses) != 1 || body.Order != nil {
			return nil, false
		}
		fc, ok := body.Clauses[0].(xquery.ForClause)
		if !ok {
			return nil, false
		}
		src, ok := fc.Source.(*xquery.Path)
		if !ok {
			return nil, false
		}
		doc, steps, ok := src.DocSteps()
		if !ok || len(steps) == 0 || !xpath.PlainNameSteps(steps) {
			return nil, false
		}
		if !isVarOnly(body.Return, fc.Var) {
			return nil, false
		}
		var conjuncts []xpath.Expr
		if body.Where != nil {
			wp, ok := body.Where.(*xquery.Path)
			if !ok || len(wp.Docs) != 0 {
				return nil, false
			}
			conjuncts = splitAnd(wp.X)
			for _, c := range conjuncts {
				if !overVarOnly(c, fc.Var) || !downwardOnly(c) {
					return nil, false
				}
			}
		}
		return &shape{doc: doc, forVar: fc.Var, steps: steps, conjuncts: conjuncts}, true
	default:
		return nil, false
	}
}

// rewrite attempts to answer q from the view; it returns the rewritten
// query reading viewDoc, or ok=false when the view does not provably
// subsume q.
func (v *shape) rewrite(viewDoc string, q *xquery.Query) (*xquery.Query, bool) {
	if q.Arity() != 0 {
		return nil, false
	}
	body, ok := q.Body.(*xquery.FLWR)
	if !ok || len(body.Clauses) == 0 {
		return nil, false
	}
	fc, ok := body.Clauses[0].(xquery.ForClause)
	if !ok {
		return nil, false
	}
	src, ok := fc.Source.(*xquery.Path)
	if !ok {
		return nil, false
	}
	doc, steps, ok := src.DocSteps()
	if !ok || doc != v.doc || len(steps) < len(v.steps) {
		return nil, false
	}
	for i, vs := range v.steps {
		if !stepEqual(vs, steps[i]) {
			return nil, false
		}
	}
	// The rewritten query navigates inside stored subtree copies; any
	// upward or sibling axis could observe surroundings the view did
	// not materialize.
	if !queryDownwardOnly(q) {
		return nil, false
	}

	// Predicate containment: every view conjunct must be implied by a
	// query conjunct, else the view may be missing rows q needs.
	var qConjuncts []xpath.Expr
	if body.Where != nil {
		wp, ok := body.Where.(*xquery.Path)
		if !ok || len(wp.Docs) != 0 {
			return nil, false
		}
		qConjuncts = splitAnd(wp.X)
	}
	redundant := make([]bool, len(qConjuncts))
	for _, vc := range v.conjuncts {
		vcq := renameVar(vc, v.forVar, fc.Var)
		matched := false
		for i, qc := range qConjuncts {
			if !overVarOnly(qc, fc.Var) {
				continue
			}
			if implies(qc, vcq) {
				matched = true
				if qc.String() == vcq.String() {
					redundant[i] = true // already applied by the view
				}
			}
		}
		if !matched {
			return nil, false
		}
	}

	// Re-root the source on the view document. A wrapper view stores
	// the nodes matched by its last step as children of the view root,
	// so that step repeats; a full-copy view stores the document root
	// itself, so the whole path carries over.
	var newSteps []xpath.Step
	if v.whole {
		newSteps = steps
	} else {
		newSteps = append([]xpath.Step{steps[len(v.steps)-1]}, steps[len(v.steps):]...)
	}
	var kept []xpath.Expr
	for i, qc := range qConjuncts {
		if !redundant[i] {
			kept = append(kept, qc)
		}
	}
	var where xquery.Expr
	if len(kept) > 0 {
		where = &xquery.Path{X: joinAnd(kept)}
	}
	clauses := append([]xquery.Clause{
		xquery.ForClause{Var: fc.Var, Source: xquery.DocPath(viewDoc, newSteps...)},
	}, body.Clauses[1:]...)
	return &xquery.Query{Body: &xquery.FLWR{
		Clauses: clauses,
		Where:   where,
		Order:   body.Order,
		Return:  body.Return,
	}}, true
}

func stepEqual(a, b xpath.Step) bool { return a.String() == b.String() }

// isVarOnly reports whether e is exactly the variable reference $v.
func isVarOnly(e xquery.Expr, v string) bool {
	p, ok := e.(*xquery.Path)
	if !ok || len(p.Docs) != 0 {
		return false
	}
	switch x := p.X.(type) {
	case xpath.VarRef:
		return string(x) == v
	case *xpath.PathExpr:
		vr, ok := x.Filter.(xpath.VarRef)
		return ok && string(vr) == v && len(x.Steps) == 0
	}
	return false
}

// overVarOnly reports whether every variable e references is v.
func overVarOnly(e xpath.Expr, v string) bool {
	for _, name := range xpath.Variables(e) {
		if name != v {
			return false
		}
	}
	return true
}

// splitAnd flattens nested top-level 'and' operators.
func splitAnd(e xpath.Expr) []xpath.Expr {
	if b, ok := e.(*xpath.BinaryExpr); ok && b.Op == "and" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []xpath.Expr{e}
}

// joinAnd rebuilds a left-deep conjunction.
func joinAnd(es []xpath.Expr) xpath.Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &xpath.BinaryExpr{Op: "and", L: out, R: e}
	}
	return out
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

// downwardOnly reports whether every location step in e stays inside
// the subtree of its context node.
func downwardOnly(e xpath.Expr) bool {
	ok := true
	var walk func(xpath.Expr)
	walk = func(e xpath.Expr) {
		switch v := e.(type) {
		case *xpath.PathExpr:
			if v.Filter != nil {
				walk(v.Filter)
			}
			for _, s := range v.Steps {
				switch s.Axis {
				case xpath.AxisChild, xpath.AxisDescendant, xpath.AxisDescendantOrSelf,
					xpath.AxisSelf, xpath.AxisAttribute:
				default:
					ok = false
				}
				for _, p := range s.Preds {
					walk(p)
				}
			}
		case *xpath.BinaryExpr:
			walk(v.L)
			walk(v.R)
		case *xpath.UnionExpr:
			for _, p := range v.Paths {
				walk(p)
			}
		case *xpath.NegExpr:
			walk(v.X)
		case *xpath.FuncCall:
			for _, a := range v.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return ok
}

// queryDownwardOnly applies downwardOnly to every path of the query.
func queryDownwardOnly(q *xquery.Query) bool {
	ok := true
	var walk func(xquery.Expr)
	walk = func(e xquery.Expr) {
		switch v := e.(type) {
		case *xquery.Path:
			if !downwardOnly(v.X) {
				ok = false
			}
		case *xquery.FLWR:
			for _, c := range v.Clauses {
				switch cl := c.(type) {
				case xquery.ForClause:
					walk(cl.Source)
				case xquery.LetClause:
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
		case *xquery.Elem:
			for _, a := range v.Attrs {
				if a.Computed != nil {
					walk(a.Computed)
				}
			}
			for _, c := range v.Content {
				walk(c)
			}
		case *xquery.Seq:
			for _, it := range v.Items {
				walk(it)
			}
		}
	}
	walk(q.Body)
	return ok
}

// subtreeLocal reports whether the body of a single-for query reads
// nothing outside the subtree its for variable is bound to: no upward
// or sibling axis anywhere, and no doc() beside the for source.
// Provenance-based maintenance re-derives a source only when that
// subtree changed, so it is sound for exactly these bodies.
func subtreeLocal(q *xquery.Query) bool {
	f, ok := q.Body.(*xquery.FLWR)
	if !ok || len(f.Clauses) == 0 || !queryDownwardOnly(q) {
		return false
	}
	residual := &xquery.Query{Body: &xquery.FLWR{
		Clauses: f.Clauses[1:], Where: f.Where, Order: f.Order, Return: f.Return}}
	return len(residual.DocRefs()) == 0
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

// RewriteBest returns the first applicable rewriting and the name of
// the view it reads, if any — the cost-blind entry point for
// single-peer deployments (wire servers) where any matching view is
// local and therefore profitable.
func (m *Manager) RewriteBest(q *xquery.Query) (*xquery.Query, string, bool) {
	for _, name := range m.names() {
		st, ok := m.lookup(name)
		if !ok || st.shape == nil {
			continue
		}
		if rw, ok := st.shape.rewrite(st.def.DocName(), q); ok {
			return rw, name, true
		}
	}
	return nil, "", false
}
