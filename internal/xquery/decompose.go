package xquery

import (
	"axml/internal/xpath"
)

// This file implements the query decomposition of the paper's rule
// (11) in the specific, practically important shape of Example 1
// ("pushing selections"): a query
//
//	for $x in doc("d")/path where P($x) and Q(...) return C(...)
//
// is decomposed into a remote part q3 = σ(q2)
//
//	for $x in doc("d")/path where P($x) return $x
//
// executed at the peer hosting d, and a local part q1
//
//	param $in; for $x in $in where Q(...) return C(...)
//
// applied to the (typically much smaller) shipped result. P collects
// the conjuncts of the where clause that depend only on $x; the rest
// stay local.

// Decomposition is the result of a successful selection pushdown.
type Decomposition struct {
	// Local is q1: it declares one extra leading parameter "in" that
	// receives the forest produced by Remote, followed by the original
	// query's parameters.
	Local *Query
	// Remote is q3 = σ(q2): a parameterless query to be shipped to and
	// evaluated at the peer hosting Doc.
	Remote *Query
	// Doc is the document the remote part reads.
	Doc string
	// Pushed and Kept count the where-conjuncts moved and retained.
	Pushed, Kept int
}

// Decompose attempts the Example 1 selection-pushdown decomposition.
// It succeeds when the query body is a FLWR whose first clause is a
// for over a single doc("name") path, whose variable no later clause
// binds again, at least one conjunct of the where clause references
// only that for variable, the local part reads nothing outside the
// copies it is shipped (DownwardOnly), and something is left for it to
// do: a kept conjunct, another clause, an order by or a return other
// than the bare for variable. It returns ok=false when the query does
// not have that shape (the caller then falls back to whole-query
// shipping, definition (7)).
func Decompose(q *Query) (*Decomposition, bool) {
	s, ok := Select(q.Body)
	if !ok || s.At != 0 || s.Rebound() || s.Source == nil || len(s.Source.Docs) != 1 {
		return nil, false
	}
	// The source path must not reference query parameters or other vars
	// (those are not available at the remote peer).
	doc := s.Source.Docs[0]
	if !ReadsOnly(s.Source.X, xpath.DocVar+doc) {
		return nil, false
	}
	conjuncts, ok := s.Predicate()
	if !ok {
		return nil, false
	}
	var pushed, kept []xpath.Expr
	for _, c := range conjuncts {
		if ReadsOnly(c, s.For.Var) {
			pushed = append(pushed, c)
		} else {
			kept = append(kept, c)
		}
	}
	if len(pushed) == 0 {
		return nil, false
	}
	if s.ReturnsVar() && len(kept) == 0 && len(s.F.Clauses) == 1 && s.F.Order == nil {
		// The local part would return its input unchanged: shipping the
		// selection whole is the same plan with one query layer fewer.
		return nil, false
	}

	// Remote: for $x in doc(...)/path where pushed return $x
	remote := &Query{
		Body: &FLWR{
			Clauses: []Clause{s.For},
			Where:   &Path{X: conjunction(pushed)},
			Return:  &Path{X: xpath.VarRef(s.For.Var)},
		},
	}
	// Local: param $in, <original params>;
	//        for $x in $in <rest of clauses> where kept ... return ...
	local := &Query{
		Params: append([]string{"in"}, q.Params...),
		Body:   s.With(&Path{X: xpath.VarRef("in")}, kept),
	}
	// The shipped copies have no surroundings to navigate to.
	if !local.DownwardOnly() {
		return nil, false
	}
	return &Decomposition{
		Local:  local,
		Remote: remote,
		Doc:    doc,
		Pushed: len(pushed),
		Kept:   len(kept),
	}, true
}
