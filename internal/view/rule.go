package view

import (
	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/rewrite"
)

// Rule adapts a Manager to the optimizer's rewrite.Rule interface:
// wherever the plan search reaches a query expression some view
// subsumes, it offers the view-reading rewriting as an alternative.
// The search then prices it with the shared estimator — the view
// document resolves through the same catalog the evaluator uses, so
// "read view@local" competes with "ship from base@remote" (and with
// delegating the rewritten query to the view's peer) on real link
// costs. Like rewrite's rules it reads one way only, base to view: the
// search keeps the base-reading plan it started from, so no rule has
// to map a view read back.
type Rule struct{ M *Manager }

// Rule returns the manager's optimizer rule. Pass it through
// opt.Options.ExtraRules (the axml facade does this automatically).
func (m *Manager) Rule() rewrite.Rule { return Rule{M: m} }

// Name implements rewrite.Rule.
func (Rule) Name() string { return "useView" }

// Apply implements rewrite.Rule.
func (r Rule) Apply(e core.Expr, at netsim.PeerID, ctx *rewrite.Context) []core.Expr {
	q, ok := e.(*core.Query)
	if !ok || len(q.Args) != 0 || q.Q.Arity() != 0 {
		return nil
	}
	var out []core.Expr
	for _, rw := range r.M.Rewrite(q.Q) {
		out = append(out, &core.Query{Q: rw, At: at})
	}
	return out
}
