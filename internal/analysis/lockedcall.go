package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockedCall flags blocking network operations and channel sends made
// while a sync.Mutex/RWMutex is held — the cross-hop deadlock class: a
// peer that calls into netsim (or real wire I/O) under a lock can be
// re-entered by the remote side needing that same lock, and under
// virtual time a blocked send under a lock stalls the whole step.
//
// "Network operation" means a direct call to one of the seed
// entrypoints below, or to a function in the same package that
// (transitively, within the package) reaches one. Cross-package
// propagation is intentionally limited to the named seeds: the high
// fan-in session/core surfaces would otherwise poison every caller.
// (lockorder runs the full module-wide closure; this analyzer is the
// cheap per-package guard.)
//
// Held locks are a forward may-dataflow fact on the CFG: mu.Lock()/
// mu.RLock() generates "mu held", the matching Unlock kills it, and a
// network call or channel send is flagged when any path reaches it
// with a lock held. `defer mu.Unlock()` keeps the lock held to the end
// of the function (it releases only at return). PR 7's lexical region
// tracker copied the held set into each branch, which missed two real
// shapes the CFG handles: a Lock taken inside a branch leaking into
// the code after the merge (conditional lock), and the
// defer-then-conditional-early-Unlock dance in placement.Controller.
// Step-like code, where the early Unlock must actually release the
// region on that path. Function literals are not entered — a goroutine
// launched under a lock runs after the caller releases it.
var LockedCall = &Analyzer{
	Name: "lockedcall",
	Doc:  "no netsim/wire network calls or channel sends while holding a mutex",
	Run:  runLockedCall,
}

// NetworkEntrypoints are the cross-package functions treated as
// blocking network operations. Matched against types.Func.FullName;
// entries ending in "." match every method of that receiver.
var NetworkEntrypoints = []string{
	"(*axml/internal/netsim.Network).Call",
	"(*axml/internal/netsim.Network).CallCtx",
	"(*axml/internal/netsim.Network).Send",
	"(*axml/internal/wire.Client).",
	"(*axml/internal/core.System).ShipForest",
	"(*axml/internal/view.Manager).Migrate",
	"(*axml/internal/view.Manager).AddPlacement",
	"(*axml/internal/view.Manager).Define",
	"(*axml/internal/view.Manager).DefineQuery",
	"(*axml/internal/view.Manager).Refresh",
	"(*axml/internal/view.Manager).RefreshContext",
	"(*axml/internal/view.Manager).RefreshAll",
	"(*axml/internal/view.Manager).RefreshAllContext",
	"(*axml/internal/view.Manager).RefreshFull",
	"(net.Conn).",
	"(*net.TCPConn).",
	"net.Dial",
	"net.DialTimeout",
	"net.Listen",
}

func runLockedCall(pass *Pass) error {
	netcalling := netcallingClosure(pass)
	for _, fd := range funcDecls(pass.Files) {
		checkLockedCalls(pass, fd, netcalling)
	}
	return nil
}

// netcallingClosure computes which declared functions of the package
// reach a network entrypoint (intra-package transitive closure).
func netcallingClosure(pass *Pass) map[*types.Func]bool {
	decls := funcDecls(pass.Files)
	netcalling := make(map[*types.Func]bool)
	declOf := make(map[*types.Func]*ast.FuncDecl)
	for _, fd := range decls {
		if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			declOf[fn] = fd
		}
	}
	reaches := func(fd *ast.FuncDecl) bool {
		found := false
		inspectNoFuncLit(fd.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				fn := calleeOf(pass.TypesInfo, call)
				if fn != nil && (isNetEntrypoint(fn) || netcalling[fn]) {
					found = true
				}
			}
			return true
		})
		return found
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range declOf {
			if !netcalling[fn] && reaches(fd) {
				netcalling[fn] = true
				changed = true
			}
		}
	}
	return netcalling
}

func isNetEntrypoint(fn *types.Func) bool {
	name := fullName(fn)
	for _, pat := range NetworkEntrypoints {
		if strings.HasSuffix(pat, ".") {
			// Wildcard receivers: every method except Close — closing
			// your own connection under your own mutex does not block
			// on the remote side.
			if strings.HasPrefix(name, pat) && fn.Name() != "Close" {
				return true
			}
		} else if name == pat {
			return true
		}
	}
	return false
}

func checkLockedCalls(pass *Pass, fd *ast.FuncDecl, netcalling map[*types.Func]bool) {
	cfg := BuildCFG(fd.Body, func(call *ast.CallExpr) bool {
		return terminalCall(pass.TypesInfo, call)
	})
	transfer := func(b *Block, in FactSet) FactSet {
		out := in
		for _, n := range b.Nodes {
			out = lockTransfer(pass, n, out)
		}
		return out
	}
	flow := cfg.Solve(FactSet{}, transfer, nil)

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
			if len(facts) > 0 {
				reportLockedOps(pass, n, facts, netcalling)
			}
			facts = lockTransfer(pass, n, facts)
		}
	}
}

// lockTransfer folds the lock operations contained in node n into the
// held set. Deferred unlocks keep the region open (they release at
// return); goroutine bodies and function literals run outside it.
func lockTransfer(pass *Pass, n ast.Node, facts FactSet) FactSet {
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
		if op, key, isLock := lockOp(pass, call); isLock {
			switch op {
			case "Lock", "RLock":
				if !out[key] {
					out = out.Clone()
					out[key] = true
				}
			default: // Unlock, RUnlock
				if out[key] {
					out = out.Clone()
					delete(out, key)
				}
			}
		}
	})
	return out
}

// reportLockedOps flags channel sends and network calls in node n
// while any lock is held. Lock operations contained in the same node
// are folded in program order alongside the checks.
func reportLockedOps(pass *Pass, n ast.Node, held FactSet, netcalling map[*types.Func]bool) {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred calls run at exit (possibly after unlock); goroutine
		// bodies run outside the lock region.
		return
	}
	forEachSkippingFuncLit(n, func(m ast.Node) {
		switch v := m.(type) {
		case *ast.SendStmt:
			pass.Reportf(v.Pos(), "channel send while holding %s", strings.Join(held.Keys(), ", "))
		case *ast.CallExpr:
			fn := calleeOf(pass.TypesInfo, v)
			if fn != nil && (isNetEntrypoint(fn) || netcalling[fn]) {
				pass.Reportf(v.Pos(), "network call %s while holding %s", fn.Name(), strings.Join(held.Keys(), ", "))
			}
		}
	})
}

// lockOp recognizes mu.Lock/RLock/Unlock/RUnlock on sync mutexes and
// returns the operation and a key identifying the lock expression.
func lockOp(pass *Pass, call *ast.CallExpr) (op, key string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	switch fullName(fn) {
	case "(*sync.Mutex).Lock", "(*sync.Mutex).Unlock",
		"(*sync.RWMutex).Lock", "(*sync.RWMutex).Unlock",
		"(*sync.RWMutex).RLock", "(*sync.RWMutex).RUnlock":
		return fn.Name(), types.ExprString(sel.X), true
	}
	return "", "", false
}

// inspectNoFuncLit is ast.Inspect that does not descend into function
// literals.
func inspectNoFuncLit(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return f(n)
	})
}
