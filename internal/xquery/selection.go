package xquery

import (
	"iter"
	"slices"

	"axml/internal/xpath"
)

// Selection is a FLWR read as the selection of Example 1 and rule (11),
//
//	for $v in doc("d")/s1/…/sk where C1 and … and Cn return $v
//
// as far as the FLWR has that shape. Select reads the parts once; each
// reader checks those its rule needs: the pushdown (Decompose), delta
// maintenance (NewDeltaFor) and the point lookup (lookupOf) here, view
// matching and the plan-cache key in package view, and the estimator
// in package opt.
type Selection struct {
	F *FLWR
	// At indexes For, F's first for clause, in F.Clauses; it is -1 when
	// F has none.
	At  int
	For ForClause
	// Source is For's source when that is a path, else nil.
	Source *Path
	// Where is F's where clause when that is a path, else nil.
	Where *Path
}

// Select reads e as a selection; ok is false when e is not a FLWR.
func Select(e Expr) (s Selection, ok bool) {
	f, ok := e.(*FLWR)
	if !ok {
		return s, false
	}
	s.F, s.At = f, -1
	for i, c := range f.Clauses {
		if fc, isFor := c.(ForClause); isFor {
			s.At, s.For = i, fc
			s.Source, _ = fc.Source.(*Path)
			break
		}
	}
	s.Where, _ = f.Where.(*Path)
	return s, true
}

// Conjuncts yields the conjuncts of Where, left to right: the operands
// of its top-level and-chain, nested chains flattened. It yields none
// when Where is nil.
func (s Selection) Conjuncts() iter.Seq[xpath.Expr] {
	return func(yield func(xpath.Expr) bool) {
		if s.Where != nil {
			eachConjunct(s.Where.X, yield)
		}
	}
}

func eachConjunct(x xpath.Expr, yield func(xpath.Expr) bool) bool {
	if b, ok := x.(*xpath.BinaryExpr); ok && b.Op == "and" {
		return eachConjunct(b.L, yield) && eachConjunct(b.R, yield)
	}
	return yield(x)
}

// Predicate returns the conjuncts of a where that reads no document,
// and none when F has no where; ok is false for any other where, which
// no rewrite may take apart.
func (s Selection) Predicate() (conjuncts []xpath.Expr, ok bool) {
	if s.F.Where == nil {
		return nil, true
	}
	if s.Where == nil || len(s.Where.Docs) != 0 {
		return nil, false
	}
	return slices.Collect(s.Conjuncts()), true
}

// ReturnsVar reports whether F returns exactly For's variable.
func (s Selection) ReturnsVar() bool {
	r, ok := s.F.Return.(*Path)
	return ok && s.At >= 0 && r.X == xpath.VarRef(s.For.Var)
}

// DocSteps is Source as doc("d")/s1/…/sk (Path.DocSteps); ok is false
// for any other source.
func (s Selection) DocSteps() (doc string, steps []xpath.Step, ok bool) {
	if s.Source == nil {
		return "", nil, false
	}
	return s.Source.DocSteps()
}

// Rebound reports whether a clause after For binds its variable again,
// so that what follows reads another $v than the one For binds.
func (s Selection) Rebound() bool {
	for _, c := range s.F.Clauses[s.At+1:] {
		if c.clauseVar() == s.For.Var {
			return true
		}
	}
	return false
}

// With is F with For ranging over source instead, unless source is
// nil, and with the conjunction of conjuncts as its where, or none
// when there are none.
func (s Selection) With(source Expr, conjuncts []xpath.Expr) *FLWR {
	out := *s.F
	if source != nil {
		out.Clauses = slices.Clone(s.F.Clauses)
		out.Clauses[s.At] = ForClause{Var: s.For.Var, Source: source}
	}
	out.Where = nil
	if len(conjuncts) > 0 {
		out.Where = &Path{X: conjunction(conjuncts)}
	}
	return &out
}

// conjunction rebuilds a left-deep and-chain.
func conjunction(es []xpath.Expr) xpath.Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &xpath.BinaryExpr{Op: "and", L: out, R: e}
	}
	return out
}

// ReadsOnly reports whether every variable x reads is v. A doc() is a
// variable too (xpath.DocVar), so an expression that reads a document
// reads more than $v.
func ReadsOnly(x xpath.Expr, v string) bool {
	for _, name := range xpath.Variables(x) {
		if name != v {
			return false
		}
	}
	return true
}
