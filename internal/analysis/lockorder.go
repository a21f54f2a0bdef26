package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the module-wide lock-acquisition-order graph and
// reports cycles — the classic two-mutex deadlock: one code path takes
// A then B, another takes B then A, and two goroutines interleaving
// the two paths wedge forever. lockedcall guards the network-under-
// lock variant per package; this analyzer closes the pure-mutex
// variant over the whole module's call graph.
//
// Lock identity is structural, not per-instance: a field mutex is
// "pkg.Type.field", a package-level mutex "pkg.var", a mutex embedded
// in a named type "pkg.Type". Locks on local variables are skipped —
// without instance identity they cannot participate in a meaningful
// global order. Self-edges (re-acquiring the same identity, i.e. two
// instances of one type nested) are also skipped for the same reason:
// parent/child locking of one type is common and instance order is
// invisible to a type-keyed analysis.
//
// Per function, the may-held set flows over the CFG (defers keep the
// region open; goroutine bodies run outside it). Each Lock(M) under
// held {L...} adds direct edges L→M; each call to a module function f
// under held {L...} adds edges L→M for every M in f's transitive
// acquisition summary (a fixpoint over the call graph, excluding `go`
// call sites). A cycle is reported once, at the acquisition site of
// the edge leaving the cycle's lexicographically smallest lock, with
// the full path and the witnessing function for each hop.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "lock acquisition order must be globally consistent (cycles can deadlock)",
	RunModule: runLockOrder,
}

// lockEdge is evidence that `from` is held while `to` is acquired.
type lockEdge struct {
	from, to string
	pos      token.Pos // acquisition or call site
	fn       string    // function containing the evidence
	via      string    // callee name for interprocedural edges, "" for direct
}

func runLockOrder(mp *ModulePass) error {
	cg := BuildCallGraph(mp.Pkgs)

	fns := make([]*types.Func, 0, len(cg.Funcs))
	for fn := range cg.Funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fullName(fns[i]) < fullName(fns[j]) })

	edges := make(map[string]map[string]lockEdge)
	addEdge := func(e lockEdge) {
		if e.from == e.to {
			return
		}
		m := edges[e.from]
		if m == nil {
			m = make(map[string]lockEdge)
			edges[e.from] = m
		}
		if _, ok := m[e.to]; !ok {
			m[e.to] = e
		}
	}

	type heldCall struct {
		callee *types.Func
		held   FactSet
		pos    token.Pos
		fn     string
	}
	var heldCalls []heldCall
	acquires := make(map[*types.Func]FactSet, len(fns))

	for _, fn := range fns {
		fi := cg.Funcs[fn]
		info := fi.Pkg.Info
		acq := FactSet{}
		cfg := BuildCFG(fi.Decl.Body, func(call *ast.CallExpr) bool {
			return terminalCall(info, call)
		})
		transfer := func(b *Block, in FactSet) FactSet {
			out := in
			for _, n := range b.Nodes {
				out = lockAcqTransfer(info, n, out, nil, nil)
			}
			return out
		}
		flow := cfg.Solve(FactSet{}, transfer, nil)

		fnName := fn.Name()
		for _, b := range cfg.Blocks {
			if !cfg.Reachable(b) {
				continue
			}
			in, ok := flow.In[b]
			if !ok {
				continue
			}
			facts := in
			for _, n := range b.Nodes {
				facts = lockAcqTransfer(info, n, facts,
					func(ident string, held FactSet, pos token.Pos) {
						acq[ident] = true
						for l := range held {
							addEdge(lockEdge{from: l, to: ident, pos: pos, fn: fnName})
						}
					},
					func(callee *types.Func, held FactSet, pos token.Pos) {
						if callee = cg.declared(callee); callee == nil {
							return
						}
						if len(held) > 0 {
							heldCalls = append(heldCalls, heldCall{callee: callee, held: held.Clone(), pos: pos, fn: fnName})
						}
					})
			}
		}
		acquires[fn] = acq
	}

	// Transitive acquisition summaries over the call graph. `go` call
	// sites are excluded: the spawned goroutine's locks are taken
	// concurrently, not nested under the caller's held set.
	trans := make(map[*types.Func]FactSet, len(fns))
	for _, fn := range fns {
		trans[fn] = acquires[fn].Clone()
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			t := trans[fn]
			for _, cs := range cg.Funcs[fn].Callees {
				if cs.InGo {
					continue
				}
				for k := range trans[cs.Callee] {
					if !t[k] {
						t[k] = true
						changed = true
					}
				}
			}
		}
	}

	for _, hc := range heldCalls {
		for m := range trans[hc.callee] {
			for l := range hc.held {
				addEdge(lockEdge{from: l, to: m, pos: hc.pos, fn: hc.fn, via: hc.callee.Name()})
			}
		}
	}

	reportLockCycles(mp, edges)
	return nil
}

// lockAcqTransfer folds the lock operations under CFG node n into the
// held set, in source order. onAcq fires at each Lock/RLock with the
// set held just before it; onCall fires at each resolvable call with
// the current held set. Defer and go statements are skipped entirely:
// a deferred Unlock keeps the region open until exit, and a goroutine
// body acquires on its own schedule.
func lockAcqTransfer(info *types.Info, n ast.Node, facts FactSet, onAcq func(string, FactSet, token.Pos), onCall func(*types.Func, FactSet, token.Pos)) FactSet {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return facts
	}
	out := facts
	forEachSkippingFuncLit(n, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return
		}
		if op, ident, isLock := lockAcqOp(info, call); isLock {
			switch op {
			case "Lock", "RLock":
				if onAcq != nil {
					onAcq(ident, out, call.Pos())
				}
				if !out[ident] {
					out = out.Clone()
					out[ident] = true
				}
			default: // Unlock, RUnlock
				if out[ident] {
					out = out.Clone()
					delete(out, ident)
				}
			}
			return
		}
		if onCall != nil {
			if callee := calleeOf(info, call); callee != nil {
				onCall(callee, out, call.Pos())
			}
		}
	})
	return out
}

// lockAcqOp recognizes Lock/RLock/Unlock/RUnlock calls on sync mutexes
// and resolves a stable, module-wide identity for the lock. ok is false
// for locks without one (locals).
func lockAcqOp(info *types.Info, call *ast.CallExpr) (op, ident string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	switch fullName(fn) {
	case "(*sync.Mutex).Lock", "(*sync.Mutex).Unlock",
		"(*sync.RWMutex).Lock", "(*sync.RWMutex).Unlock",
		"(*sync.RWMutex).RLock", "(*sync.RWMutex).RUnlock":
	default:
		return "", "", false
	}
	ident = lockIdent(info, sel.X)
	return fn.Name(), ident, ident != ""
}

// lockIdent resolves the mutex-valued expression x to a structural
// identity: "pkg.Type.field" for a field mutex, "pkg.var" for a
// package-level one, "pkg.Type" for a mutex embedded in a named type,
// or "" for locals.
func lockIdent(info *types.Info, x ast.Expr) string {
	x = ast.Unparen(x)
	// A named non-sync receiver means the Lock method is promoted from
	// an embedded mutex: key by the embedding type.
	if t := namedTypeName(info.TypeOf(x)); t != "" && t != "sync.Mutex" && t != "sync.RWMutex" {
		return t
	}
	switch v := x.(type) {
	case *ast.SelectorExpr:
		if s := info.Selections[v]; s != nil && s.Obj() != nil {
			if recv := namedTypeName(s.Recv()); recv != "" {
				return recv + "." + s.Obj().Name()
			}
			return ""
		}
		// Package-qualified: otherpkg.GlobalMu.
		if obj, ok := info.Uses[v.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	case *ast.Ident:
		if obj, ok := info.Uses[v].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}

// reportLockCycles finds strongly connected components of the order
// graph and reports each cycle once, at the edge leaving the cycle's
// smallest lock identity.
func reportLockCycles(mp *ModulePass, edges map[string]map[string]lockEdge) {
	nodeSet := make(map[string]bool)
	for from, tos := range edges {
		nodeSet[from] = true
		for to := range tos {
			nodeSet[to] = true
		}
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	succs := func(v string) []string {
		out := make([]string, 0, len(edges[v]))
		for to := range edges[v] {
			out = append(out, to)
		}
		sort.Strings(out)
		return out
	}

	// Tarjan SCC, deterministic via the sorted node and successor order.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var comps [][]string
	counter := 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs(v) {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}

	var cyclic [][]string
	for _, comp := range comps {
		if len(comp) >= 2 {
			sort.Strings(comp)
			cyclic = append(cyclic, comp)
		}
	}
	sort.Slice(cyclic, func(i, j int) bool { return cyclic[i][0] < cyclic[j][0] })

	for _, comp := range cyclic {
		inComp := make(map[string]bool, len(comp))
		for _, n := range comp {
			inComp[n] = true
		}
		path := lockCyclePath(edges, inComp, comp[0])
		if len(path) < 3 {
			continue
		}
		var hops []string
		for i := 0; i+1 < len(path); i++ {
			e := edges[path[i]][path[i+1]]
			hop := fmt.Sprintf("%s before %s in %s", path[i], path[i+1], e.fn)
			if e.via != "" {
				hop += " via " + e.via
			}
			hops = append(hops, hop)
		}
		first := edges[path[0]][path[1]]
		mp.Reportf(first.pos, "lock order cycle: %s (%s)",
			strings.Join(path, " -> "), strings.Join(hops, "; "))
	}
}

// lockCyclePath returns a deterministic cycle start -> ... -> start
// using only edges inside the component.
func lockCyclePath(edges map[string]map[string]lockEdge, inComp map[string]bool, start string) []string {
	var path []string
	visited := map[string]bool{start: true}
	var dfs func(cur string) bool
	dfs = func(cur string) bool {
		path = append(path, cur)
		tos := make([]string, 0, len(edges[cur]))
		for to := range edges[cur] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if to == start && len(path) > 1 {
				path = append(path, start)
				return true
			}
			if inComp[to] && !visited[to] {
				visited[to] = true
				if dfs(to) {
					return true
				}
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if !dfs(start) {
		return nil
	}
	return path
}
