package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoLeak flags goroutines that can block forever — the leak pattern
// this repo keeps re-growing in its watcher/auto-refresh plumbing: a
// `go func() { ch <- result }()` whose receive lives on only some of
// the enclosing function's paths, a ticker that is never Stopped, or a
// goroutine body that exits still holding a shared mutex.
//
// The checks are deliberately narrow to stay quiet on correct code:
//
//   - Channel pairing is only analyzed for a locally-made unbuffered
//     channel used by exactly one `go func(){...}()` literal and
//     nowhere else that could take over responsibility (another
//     closure, a callee, a store, a return — any of those is an
//     escape and ends the analysis). If the goroutine performs a
//     blocking send (no select-with-default around it), every path
//     from the go statement to the function's exit must pass a
//     receive; symmetrically a blocking receive needs a send or close
//     on every path. The path check runs on the CFG, so an early
//     return between the go statement and the receive is exactly the
//     bug it reports.
//   - time.NewTicker results that neither escape nor get Stopped on
//     every path leak the ticker's goroutine; time.Tick always does.
//   - A goroutine literal that can exit while a captured mutex is
//     still held (net of deferred unlocks) wedges every other
//     goroutine that touches that mutex.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "goroutines must not block forever on unpaired channels, unstopped tickers, or held mutexes",
	Run:  runGoLeak,
}

func runGoLeak(pass *Pass) error {
	for _, fs := range funcScopes(pass.Files) {
		checkGoLeakScope(pass, fs)
	}
	return nil
}

func checkGoLeakScope(pass *Pass, fs funcScope) {
	cfg := BuildCFG(fs.body, func(call *ast.CallExpr) bool {
		return terminalCall(pass.TypesInfo, call)
	})
	checkChannelPairing(pass, fs, cfg)
	checkMustRelease(pass, fs, tickerSpec)
	checkGoroutineLockExits(pass, fs)
	checkTimeTick(pass, fs)
}

// --- channel send/receive pairing ---

func checkChannelPairing(pass *Pass, fs funcScope, cfg *CFG) {
	// Locally-made unbuffered channels: ch := make(chan T).
	type chanSite struct {
		obj  types.Object
		stmt *ast.AssignStmt
	}
	var chans []chanSite
	forEachSkippingFuncLit(fs.body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isMakeUnbufferedChan(pass, call) {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		chans = append(chans, chanSite{obj: obj, stmt: as})
	})

	for _, ch := range chans {
		checkChanFlow(pass, fs, cfg, ch.obj)
	}
}

// isMakeUnbufferedChan reports whether call is make(chan T) or
// make(chan T, 0).
func isMakeUnbufferedChan(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	if _, isChan := pass.typeOf(call.Args[0]).(*types.Chan); !isChan {
		return false
	}
	if len(call.Args) == 1 {
		return true
	}
	// Buffered only when the capacity is a literal non-zero.
	tv, ok := pass.TypesInfo.Types[call.Args[1]]
	if ok && tv.Value != nil && tv.Value.String() == "0" {
		return true
	}
	return false
}

func checkChanFlow(pass *Pass, fs funcScope, cfg *CFG, ch types.Object) {
	// Classify uses: exactly one go-launched literal may touch the
	// channel; anything else that hands it off ends the analysis.
	var goLits []*ast.GoStmt
	escaped := false
	ast.Inspect(fs.body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			if lit, ok := v.Call.Fun.(*ast.FuncLit); ok && len(v.Call.Args) == 0 {
				// The literal's body is the analyzed goroutine, not an
				// escape; returning false keeps the FuncLit case away.
				if identUses(pass.TypesInfo, lit.Body, ch) {
					goLits = append(goLits, v)
				}
				return false
			}
			if identUses(pass.TypesInfo, v.Call, ch) {
				escaped = true // go f(ch): f's protocol is unknown
			}
			return false
		case *ast.FuncLit:
			if identUses(pass.TypesInfo, v.Body, ch) {
				escaped = true
			}
			return false
		case *ast.CallExpr:
			name := ""
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					name = id.Name
				}
			}
			if name == "close" || name == "len" || name == "cap" {
				return true
			}
			for _, arg := range v.Args {
				if identUses(pass.TypesInfo, arg, ch) {
					escaped = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				// `return <-ch` returns a received value, not the channel.
				if u, ok := ast.Unparen(res).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					continue
				}
				if identUses(pass.TypesInfo, res, ch) {
					escaped = true
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range v.Rhs {
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ch {
					escaped = true // aliased or stored
				}
			}
		case *ast.CompositeLit:
			if identUses(pass.TypesInfo, v, ch) {
				escaped = true
			}
		case *ast.SendStmt:
			if identUses(pass.TypesInfo, v.Value, ch) {
				escaped = true // the channel itself sent as a value
			}
		}
		return true
	})
	if escaped || len(goLits) != 1 {
		return
	}
	gs := goLits[0]
	body := gs.Call.Fun.(*ast.FuncLit).Body

	sends, recvs := blockingChanOps(pass, body, ch)

	startBlock, startIdx := findNode(cfg, gs)
	if startBlock == nil {
		return
	}

	if sends {
		// Sending on a closed channel panics, so only a receive can
		// release the goroutine.
		kill := chanOpNodes(pass, fs.body, ch, gs, true, false)
		if reachesExitAvoiding(cfg, startBlock, startIdx, kill) {
			pass.Reportf(gs.Pos(), "goroutine may block forever sending on %s (no receive on some path from the go statement)", ch.Name())
		}
	}
	if recvs {
		kill := chanOpNodes(pass, fs.body, ch, gs, false, true)
		if reachesExitAvoiding(cfg, startBlock, startIdx, kill) {
			pass.Reportf(gs.Pos(), "goroutine may block forever receiving on %s (no send or close on some path from the go statement)", ch.Name())
		}
	}
}

// blockingChanOps reports whether the goroutine body contains a
// blocking send and/or receive on ch. Operations in the comm clause of
// a select that has another way out (a second case or a default) are
// not blocking.
func blockingChanOps(pass *Pass, body *ast.BlockStmt, ch types.Object) (sends, recvs bool) {
	nonBlocking := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || len(sel.Body.List) < 2 {
			return true
		}
		for _, cc := range sel.Body.List {
			comm, ok := cc.(*ast.CommClause)
			if !ok || comm.Comm == nil {
				continue
			}
			ast.Inspect(comm.Comm, func(m ast.Node) bool {
				if m != nil {
					nonBlocking[m] = true
				}
				return true
			})
		}
		return true
	})
	forEachSkippingFuncLit(body, func(n ast.Node) {
		if nonBlocking[n] {
			return
		}
		switch v := n.(type) {
		case *ast.SendStmt:
			if id, ok := ast.Unparen(v.Chan).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ch {
				sends = true
			}
		case *ast.UnaryExpr:
			if v.Op != token.ARROW {
				return
			}
			if id, ok := ast.Unparen(v.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ch {
				recvs = true
			}
		case *ast.RangeStmt:
			if id, ok := ast.Unparen(v.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ch {
				recvs = true
			}
		}
	})
	return sends, recvs
}

// chanOpNodes returns a predicate matching enclosing-scope CFG nodes
// that contain a receive (wantRecv) or a send/close (wantSend) on ch,
// outside the analyzed go statement.
func chanOpNodes(pass *Pass, body *ast.BlockStmt, ch types.Object, skip *ast.GoStmt, wantRecv, wantSend bool) func(ast.Node) bool {
	ops := make(map[ast.Node]bool)
	ast.Inspect(body, func(m ast.Node) bool {
		if m == ast.Node(skip) {
			return false
		}
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		switch v := m.(type) {
		case *ast.UnaryExpr:
			if wantRecv && v.Op == token.ARROW {
				if id, ok := ast.Unparen(v.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ch {
					ops[v] = true
				}
			}
		case *ast.RangeStmt:
			if wantRecv {
				if id, ok := ast.Unparen(v.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ch {
					ops[v.X] = true // the CFG's range head carries X
				}
			}
		case *ast.SendStmt:
			if wantSend {
				if id, ok := ast.Unparen(v.Chan).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ch {
					ops[v] = true
				}
			}
		case *ast.CallExpr:
			if wantSend && len(v.Args) == 1 {
				if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "close" {
					if aid, ok := ast.Unparen(v.Args[0]).(*ast.Ident); ok && pass.TypesInfo.Uses[aid] == ch {
						ops[v] = true
					}
				}
			}
		}
		return true
	})
	return func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if found || m == ast.Node(skip) {
				return false
			}
			if _, isLit := m.(*ast.FuncLit); isLit {
				return false
			}
			if ops[m] {
				found = true
			}
			return true
		})
		return found
	}
}

// --- time.Tick ---

func checkTimeTick(pass *Pass, fs funcScope) {
	forEachSkippingFuncLit(fs.body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if fullName(calleeOf(pass.TypesInfo, call)) == "time.Tick" {
			pass.Reportf(call.Pos(), "time.Tick leaks its Ticker; use time.NewTicker and Stop it")
		}
	})
}

// --- goroutine exits holding a mutex ---

func checkGoroutineLockExits(pass *Pass, fs funcScope) {
	forEachSkippingFuncLit(fs.body, func(n ast.Node) {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			return
		}
		checkGoroutineBodyLocks(pass, gs, lit)
	})
}

func checkGoroutineBodyLocks(pass *Pass, gs *ast.GoStmt, lit *ast.FuncLit) {
	cfg := BuildCFG(lit.Body, func(call *ast.CallExpr) bool {
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
	heldAtExit, ok := flow.In[cfg.Exit]
	if !ok || len(heldAtExit) == 0 {
		return
	}

	// Deferred unlocks release at exit; drop those keys.
	released := make(map[string]bool)
	for _, d := range cfg.Defers {
		if op, key, isLock := lockOp(pass, d.Call); isLock && (op == "Unlock" || op == "RUnlock") {
			released[key] = true
		}
		if dl, ok := d.Call.Fun.(*ast.FuncLit); ok {
			forEachSkippingFuncLit(dl.Body, func(m ast.Node) {
				if c, ok := m.(*ast.CallExpr); ok {
					if op, key, isLock := lockOp(pass, c); isLock && (op == "Unlock" || op == "RUnlock") {
						released[key] = true
					}
				}
			})
		}
	}

	var leaked []string
	for key := range heldAtExit {
		if released[key] {
			continue
		}
		// Mutexes declared inside the goroutine are private to it; a
		// leak only matters for captured (shared) ones.
		if lockKeyLocalTo(pass, lit, key) {
			continue
		}
		leaked = append(leaked, key)
	}
	if len(leaked) == 0 {
		return
	}
	held := FactSet{}
	for _, k := range leaked {
		held[k] = true
	}
	pass.Reportf(gs.Pos(), "goroutine exits holding %s", strings.Join(held.Keys(), ", "))
}

// lockKeyLocalTo reports whether the lock expression key resolves to a
// variable declared inside the goroutine body.
func lockKeyLocalTo(pass *Pass, lit *ast.FuncLit, key string) bool {
	base, _, _ := strings.Cut(key, ".")
	local := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == base {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				if lit.Body.Pos() <= obj.Pos() && obj.Pos() <= lit.Body.End() {
					local = true
				}
			}
		}
		return true
	})
	return local
}

// --- CFG path helpers ---

// findNode locates the CFG block and node index holding n.
func findNode(cfg *CFG, n ast.Node) (*Block, int) {
	for _, b := range cfg.Blocks {
		for i, m := range b.Nodes {
			if m == n {
				return b, i
			}
		}
	}
	return nil, 0
}

// reachesExitAvoiding reports whether the CFG's Exit is reachable from
// the point just after node index si of block sb without executing any
// node for which kill returns true. Terminal blocks (panic paths) have
// no successors and never reach Exit.
func reachesExitAvoiding(cfg *CFG, sb *Block, si int, kill func(ast.Node) bool) bool {
	for i := si + 1; i < len(sb.Nodes); i++ {
		if kill(sb.Nodes[i]) {
			return false
		}
	}
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == cfg.Exit {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, n := range b.Nodes {
			if kill(n) {
				return false
			}
		}
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	for _, s := range sb.Succs {
		if walk(s) {
			return true
		}
	}
	return false
}
