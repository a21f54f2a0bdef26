package analysis

import "sort"

// dataflow.go is a small iterative dataflow solver over the CFG in
// cfg.go: forward gen/kill-style worklist iteration over per-block
// fact sets, joined by union (a fact holds at a merge when it holds on
// SOME incoming path). Analyzers express their problem as a block
// transfer function — the fold, in evaluation order, of a per-node
// transfer — plus an optional per-edge transfer for condition-sensitive
// facts (mustrelease.go uses it to exempt the error branch of
// `rows, err := ...; if err != nil`).
//
// The solver is optimistic: blocks start at TOP (unknown) and only
// contribute to a join once they have been computed, so loops converge
// to the least fixed point. Transfers must be monotone; a safety cap
// bounds iteration regardless.

// A FactSet is a set of opaque fact keys. The zero value (nil) is an
// empty set that must not be mutated; use Clone before writing.
type FactSet map[string]bool

// Clone returns a mutable copy of f.
func (f FactSet) Clone() FactSet {
	out := make(FactSet, len(f))
	for k, v := range f {
		if v {
			out[k] = true
		}
	}
	return out
}

// Equal reports whether f and g hold the same facts.
func (f FactSet) Equal(g FactSet) bool {
	if len(f) != len(g) {
		return false
	}
	for k := range f {
		if !g[k] {
			return false
		}
	}
	return true
}

// Keys returns the facts in sorted order (for deterministic messages).
func (f FactSet) Keys() []string {
	out := make([]string, 0, len(f))
	for k := range f {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func union(a, b FactSet) FactSet {
	out := a.Clone()
	for k := range b {
		out[k] = true
	}
	return out
}

// TransferFunc computes a block's out-facts from its in-facts. It must
// not mutate in.
type TransferFunc func(b *Block, in FactSet) FactSet

// EdgeFunc adjusts facts flowing along the from→to edge (applied after
// from's transfer, before to's join). It must not mutate facts.
type EdgeFunc func(from, to *Block, facts FactSet) FactSet

// FlowResult holds the fixed-point facts at each reachable block
// boundary: In at block entry, Out at block exit.
type FlowResult struct {
	In, Out map[*Block]FactSet
}

// Solve runs the forward may-dataflow problem to its fixed point over
// c's reachable blocks. boundary seeds the entry block.
func (c *CFG) Solve(boundary FactSet, transfer TransferFunc, edge EdgeFunc) *FlowResult {
	res := &FlowResult{
		In:  make(map[*Block]FactSet, len(c.Blocks)),
		Out: make(map[*Block]FactSet, len(c.Blocks)),
	}

	var work []*Block
	inWork := make(map[*Block]bool, len(c.Blocks))
	push := func(b *Block) {
		if !inWork[b] && c.Reachable(b) {
			inWork[b] = true
			work = append(work, b)
		}
	}
	for _, b := range c.Blocks {
		push(b)
	}

	// Safety cap: facts only grow monotonically per block, so
	// |blocks| * (|distinct facts| + 2) rounds is a generous bound; use
	// a simple quadratic-ish cap to guard non-monotone transfers.
	maxSteps := (len(c.Blocks) + 1) * (len(c.Blocks) + 64)
	for steps := 0; len(work) > 0 && steps < maxSteps; steps++ {
		b := work[0]
		work = work[1:]
		inWork[b] = false

		// Join over computed predecessors (TOP contributes nothing).
		var in FactSet
		have := false
		if b == c.Entry {
			in = boundary.Clone()
			have = true
		}
		for _, p := range b.Preds {
			pout, ok := res.Out[p]
			if !ok {
				continue // still TOP
			}
			if edge != nil {
				pout = edge(p, b, pout)
			}
			if !have {
				in = pout.Clone()
				have = true
			} else {
				in = union(in, pout)
			}
		}
		if !have {
			continue // all inputs TOP: revisit when a pred lands
		}
		out := transfer(b, in)
		oldIn, hadIn := res.In[b]
		oldOut, hadOut := res.Out[b]
		if hadIn && hadOut && oldIn.Equal(in) && oldOut.Equal(out) {
			continue
		}
		res.In[b] = in
		res.Out[b] = out
		for _, s := range b.Succs {
			push(s)
		}
	}
	return res
}
