package analysis

import (
	"go/ast"
	"testing"
)

// genKillTransfer builds a transfer over a single fact: blocks
// referencing ident genName add it, blocks referencing killName remove
// it.
func genKillTransfer(fact, genName, killName string) TransferFunc {
	touches := func(b *Block, name string) bool {
		for _, n := range b.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == name {
					found = true
				}
				return true
			})
			if found {
				return true
			}
		}
		return false
	}
	return func(b *Block, in FactSet) FactSet {
		out := in
		if genName != "" && touches(b, genName) && !out[fact] {
			out = out.Clone()
			out[fact] = true
		}
		if killName != "" && touches(b, killName) && out[fact] {
			out = out.Clone()
			delete(out, fact)
		}
		return out
	}
}

// The join is may (union): a fact from one branch survives the merge,
// where a must (intersection) join — which the solver no longer has —
// would drop it.
func TestSolveMayVsMustAtMerge(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f(c bool) { if c { gen() }; use() }`), nil)
	res := c.Solve(FactSet{}, genKillTransfer("gen", "gen", ""), nil)
	if !res.In[blockCalling(c, "use")]["gen"] {
		t.Errorf("fact from one branch should survive the merge")
	}
}

func TestSolveLoopConvergence(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f(c bool) { for c { gen() }; use() }`), nil)
	res := c.Solve(FactSet{}, genKillTransfer("gen", "gen", ""), nil)
	if !res.In[blockCalling(c, "use")]["gen"] {
		t.Errorf("loop-generated fact should reach the loop exit")
	}
}

func TestSolveKillOnPath(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f(c bool) { gen(); if c { kill(); killed() }; use() }`), nil)
	res := c.Solve(FactSet{}, genKillTransfer("gen", "gen", "kill"), nil)
	if !res.In[blockCalling(c, "use")]["gen"] {
		t.Errorf("the kill-free path should still carry the fact to the merge")
	}
	if res.Out[blockCalling(c, "killed")]["gen"] {
		t.Errorf("the fact should be dead after the kill on its own path")
	}
}

func TestSolveBoundarySeedsEntry(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f() { use() }`), nil)
	use := blockCalling(c, "use")
	res := c.Solve(FactSet{"seed": true}, genKillTransfer("seed", "", ""), nil)
	if !res.In[use]["seed"] {
		t.Errorf("boundary fact should flow from entry")
	}
}

func TestSolveEdgeFunc(t *testing.T) {
	// An edge transfer that kills the fact on the true branch only.
	c := BuildCFG(parseBody(t, `func f(c bool) { gen(); if c { use() }; after() }`), nil)
	use, after := blockCalling(c, "use"), blockCalling(c, "after")

	edge := func(from, to *Block, facts FactSet) FactSet {
		if from.Cond != nil && to == from.TrueSucc && facts["gen"] {
			out := facts.Clone()
			delete(out, "gen")
			return out
		}
		return facts
	}
	res := c.Solve(FactSet{}, genKillTransfer("gen", "gen", ""), edge)
	if res.In[use]["gen"] {
		t.Errorf("edge transfer should kill the fact entering the true branch")
	}
	if !res.In[after]["gen"] {
		t.Errorf("the false path should still carry the fact to the merge")
	}
}

func TestSolveTerminalPathExcluded(t *testing.T) {
	// A panic path never reaches Exit, so a fact generated only on it
	// is not live at the function's exit — which is how the
	// must-release check excuses such paths.
	c := BuildCFG(parseBody(t, `func f(c bool) { if c { gen(); panic("x") }; use() }`), nil)
	res := c.Solve(FactSet{}, genKillTransfer("gen", "gen", ""), nil)
	if !res.Out[blockCalling(c, "panic")]["gen"] {
		t.Errorf("the fact should hold on the panic path itself")
	}
	if res.In[c.Exit]["gen"] {
		t.Errorf("a fact from the terminal path should not reach Exit")
	}
}

func TestFactSetOps(t *testing.T) {
	a := FactSet{"x": true, "y": true}
	b := a.Clone()
	delete(b, "y")
	if !a["y"] {
		t.Errorf("Clone should not alias")
	}
	if a.Equal(b) || !a.Equal(FactSet{"y": true, "x": true}) {
		t.Errorf("Equal misbehaves")
	}
	keys := FactSet{"b": true, "a": true}.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("Keys not sorted: %v", keys)
	}
}
