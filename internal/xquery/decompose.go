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
// for over a single doc("name") path, at least one conjunct of the
// where clause references only that for variable, and something is
// left for the local part to do: a kept conjunct, another clause, an
// order by or a return other than the bare for variable. It returns
// ok=false when the query does not have that shape (the caller then
// falls back to whole-query shipping, definition (7)).
func Decompose(q *Query) (*Decomposition, bool) {
	f, ok := q.Body.(*FLWR)
	if !ok || len(f.Clauses) == 0 {
		return nil, false
	}
	first, ok := f.Clauses[0].(ForClause)
	if !ok {
		return nil, false
	}
	src, ok := first.Source.(*Path)
	if !ok || len(src.Docs) != 1 {
		return nil, false
	}
	// The source path must not reference query parameters or other vars
	// (those are not available at the remote peer).
	for _, v := range xpath.Variables(src.X) {
		if v != xpath.DocVar+src.Docs[0] {
			return nil, false
		}
	}
	if f.Where == nil {
		return nil, false
	}
	wherePath, ok := f.Where.(*Path)
	if !ok || len(wherePath.Docs) != 0 {
		return nil, false
	}
	conjuncts := splitConjuncts(wherePath.X)
	var pushed, kept []xpath.Expr
	for _, c := range conjuncts {
		if onlyVar(c, first.Var) {
			pushed = append(pushed, c)
		} else {
			kept = append(kept, c)
		}
	}
	if len(pushed) == 0 {
		return nil, false
	}
	if ret, ok := f.Return.(*Path); ok && ret.X == xpath.VarRef(first.Var) &&
		len(kept) == 0 && len(f.Clauses) == 1 && f.Order == nil {
		// The local part would return its input unchanged: shipping the
		// selection whole is the same plan with one query layer fewer.
		return nil, false
	}

	// Remote: for $x in doc(...)/path where pushed return $x
	remote := &Query{
		Body: &FLWR{
			Clauses: []Clause{ForClause{Var: first.Var, Source: src}},
			Where:   &Path{X: joinConjuncts(pushed)},
			Return:  &Path{X: xpath.VarRef(first.Var)},
		},
	}

	// Local: param $in, <original params>;
	//        for $x in $in <rest of clauses> where kept ... return ...
	localFor := ForClause{Var: first.Var, Source: &Path{X: xpath.VarRef("in")}}
	localClauses := append([]Clause{localFor}, f.Clauses[1:]...)
	var localWhere Expr
	if len(kept) > 0 {
		localWhere = &Path{X: joinConjuncts(kept)}
	}
	local := &Query{
		Params: append([]string{"in"}, q.Params...),
		Body: &FLWR{
			Clauses: localClauses,
			Where:   localWhere,
			Order:   f.Order,
			Return:  f.Return,
		},
	}
	return &Decomposition{
		Local:  local,
		Remote: remote,
		Doc:    src.Docs[0],
		Pushed: len(pushed),
		Kept:   len(kept),
	}, true
}

// splitConjuncts flattens nested top-level 'and' operators.
func splitConjuncts(e xpath.Expr) []xpath.Expr {
	if b, ok := e.(*xpath.BinaryExpr); ok && b.Op == "and" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []xpath.Expr{e}
}

// joinConjuncts rebuilds a conjunction (left-deep).
func joinConjuncts(es []xpath.Expr) xpath.Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &xpath.BinaryExpr{Op: "and", L: out, R: e}
	}
	return out
}

// onlyVar reports whether every variable referenced by e is exactly v
// (doc variables count as foreign: a conjunct reading another document
// cannot be pushed).
func onlyVar(e xpath.Expr, v string) bool {
	for _, name := range xpath.Variables(e) {
		if name != v {
			return false
		}
	}
	return true
}
