package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// mustrelease.go is the one "acquired here, must be released on every
// path" check. spanend, epochpin, closeguard and goleak's ticker rule
// are rows of a table (resourceSpec) over a single engine
// (checkMustRelease); a new resource is a new row and a fixture.
//
// The check is the classic resource-leak shape, a forward may-dataflow
// problem on the function's CFG (cfg.go/dataflow.go): the fact "live"
// is generated by the acquiring assignment, killed by a release call
// on the value, and reported wherever a live value can reach a return
// (or the fall-off exit of a void function) on SOME path. Paths that
// never execute the acquisition carry no fact; panic-like calls
// (panic, os.Exit, t.Fatal) terminate their path and need no release.
// A value that escapes — returned, stored, sent, passed to a callee,
// its address taken, or captured by a closure — is that code's
// responsibility and is not tracked; reading through it (h.Root(),
// t.C) is not an escape. A deferred release, direct or inside a
// deferred closure, covers every exit.
//
// When the acquiring assignment also yields an error, the failure
// branch of `if err != nil` is exempt (a failed constructor returned
// nothing to release) until err is assigned again.

// A resourceSpec is one row of the must-release table.
type resourceSpec struct {
	// A seed is `... := f(...)`. With callee set, f must have that full
	// name and the resource is the lhs'th left-hand side; otherwise the
	// resource is any left-hand side whose named type is in types.
	callee string
	lhs    int
	types  map[string]bool

	release map[string]bool // methods on the value that release it

	// Message templates. The first %s of each is "<noun> <variable>",
	// noun defaulting to the value's named type; atReturn also takes
	// the acquisition line, fallOff the function's name.
	noun     string
	never    string
	atReturn string
	fallOff  string
}

// mustReleaseAnalyzer wraps one table row as a per-package analyzer.
func mustReleaseAnalyzer(name, doc string, spec *resourceSpec) *Analyzer {
	return &Analyzer{Name: name, Doc: doc, Run: func(pass *Pass) error {
		for _, fs := range funcScopes(pass.Files) {
			checkMustRelease(pass, fs, spec)
		}
		return nil
	}}
}

// SpanEnd: a span that is never ended reports a zero wall duration, so
// its trace under-counts the phase it timed.
var SpanEnd = mustReleaseAnalyzer("spanend",
	"every obs.StartSpan result must be End()ed on all paths",
	&resourceSpec{
		callee:   "axml/internal/obs.StartSpan",
		lhs:      1,
		release:  map[string]bool{"End": true},
		noun:     "span",
		never:    "%s is started but never ended",
		atReturn: "return without ending %s (started at line %d)",
		fallOff:  "%s may not be ended when %s falls off the end",
	})

// EpochPin: an unreleased handle pins its epoch forever — the
// observability gauges count it as live and the peer's pin table grows
// without bound under churn.
var EpochPin = mustReleaseAnalyzer("epochpin",
	"every peer.Snapshot handle must be Release()d on all paths",
	&resourceSpec{
		callee:   "(*axml/internal/peer.Peer).Snapshot",
		release:  map[string]bool{"Release": true},
		noun:     "snapshot handle",
		never:    "%s is pinned but never released",
		atReturn: "return without releasing %s (pinned at line %d)",
		fallOff:  "%s may not be released when %s falls off the end",
	})

// CloseGuard: an abandoned cursor pins its underlying evaluation and,
// for wire-backed Rows, leaks the connection's in-flight stream.
var CloseGuard = mustReleaseAnalyzer("closeguard",
	"session Rows / cursors created in a function must be Closed or handed off",
	&resourceSpec{
		types: map[string]bool{
			"axml/internal/session.Rows":   true,
			"axml/internal/core.RowCursor": true,
			"axml/internal/xquery.Cursor":  true,
			"axml.Rows":                    true,
		},
		release: map[string]bool{
			"Close":   true,
			"Collect": true, // session.Rows.Collect drains and closes
			"All":     true, // session.Rows.All's iterator defers Close
		},
		never:    "%s is never Closed and does not escape this function",
		atReturn: "return without closing %s (created at line %d)",
		fallOff:  "%s may not be Closed when %s falls off the end",
	})

// tickerSpec is goleak's row: an unstopped ticker leaks its goroutine.
var tickerSpec = &resourceSpec{
	callee:   "time.NewTicker",
	release:  map[string]bool{"Stop": true},
	noun:     "ticker",
	never:    "%s is never Stopped and leaks its goroutine",
	atReturn: "return without stopping %s (created at line %d)",
	fallOff:  "%s may not be Stopped on all paths: %s falls off the end",
}

// A resource is one tracked acquisition within a scope.
type resource struct {
	pass   *Pass
	spec   *resourceSpec
	obj    types.Object
	stmt   *ast.AssignStmt
	errObj types.Object // error result of the same assignment, if any
}

// checkMustRelease runs spec over one function scope.
func checkMustRelease(pass *Pass, fs funcScope, spec *resourceSpec) {
	var found []*resource
	forEachSkippingFuncLit(fs.body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || (spec.callee != "" && fullName(calleeOf(pass.TypesInfo, call)) != spec.callee) {
			return
		}
		first := len(found)
		var errObj types.Object
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			// := redeclares: a variable already in scope resolves
			// through Uses, not Defs.
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			switch {
			case obj == nil:
			case isErrorType(obj.Type()):
				errObj = obj
			case spec.callee != "" && i == spec.lhs,
				spec.callee == "" && spec.types[namedTypeName(obj.Type())]:
				found = append(found, &resource{pass: pass, spec: spec, obj: obj, stmt: as})
			}
		}
		for _, r := range found[first:] {
			r.errObj = errObj
		}
	})
	if len(found) == 0 {
		return
	}
	cfg := BuildCFG(fs.body, func(call *ast.CallExpr) bool {
		return terminalCall(pass.TypesInfo, call)
	})
	for _, r := range found {
		r.check(fs, cfg)
	}
}

func (r *resource) check(fs funcScope, cfg *CFG) {
	noun := r.spec.noun
	if noun == "" {
		noun = namedTypeName(r.obj.Type())
	}
	what := noun + " " + r.obj.Name()

	escapes, deferred, releases := r.classify(fs.body)
	if escapes || deferred {
		return
	}
	if releases == 0 {
		r.pass.Reportf(r.stmt.Pos(), r.spec.never, what)
		return
	}

	// errStale is only ever set beside live: a stale err on a path that
	// holds nothing must not void the exemption where it merges with a
	// path that does.
	const live, errStale = "live", "errstale"
	step := func(facts FactSet, n ast.Node) FactSet {
		switch {
		case n == ast.Node(r.stmt):
			return FactSet{live: true} // and err is fresh again
		case !facts[live]:
			return facts
		case r.releasedIn(n):
			return FactSet{}
		}
		// A later assignment to the shared err variable invalidates the
		// error-branch exemption: `if err != nil` no longer speaks about
		// this acquisition.
		if r.errObj != nil && !facts[errStale] && nodeAssignsObj(r.pass, n, r.errObj) {
			facts = facts.Clone()
			facts[errStale] = true
		}
		return facts
	}
	transfer := func(b *Block, in FactSet) FactSet {
		out := in
		for _, n := range b.Nodes {
			out = step(out, n)
		}
		return out
	}
	// Error-branch exemption: on the edge into the `err != nil` branch
	// the acquisition failed and there is nothing to release.
	edge := func(from, to *Block, facts FactSet) FactSet {
		if r.errObj == nil || !facts[live] || facts[errStale] || from.Cond == nil {
			return facts
		}
		if errGuardBranch(r.pass, from, r.errObj) != to {
			return facts
		}
		return FactSet{}
	}
	flow := cfg.Solve(FactSet{}, transfer, edge)

	line := r.pass.Fset.Position(r.stmt.Pos()).Line
	for _, b := range cfg.Blocks {
		in, ok := flow.In[b]
		if !ok || !cfg.Reachable(b) {
			continue
		}
		facts := in
		endsInReturn := false
		for _, n := range b.Nodes {
			ret, isRet := n.(*ast.ReturnStmt)
			endsInReturn = isRet
			// `return rows.Collect()` releases in the return itself.
			if isRet && facts[live] && !r.releasedIn(ret) {
				r.pass.Reportf(ret.Pos(), r.spec.atReturn, what, line)
			}
			facts = step(facts, n)
		}
		// Fall-off-the-end path: a block flowing into Exit whose last
		// node is not a return. Only void functions can fall off.
		if !fs.hasResults && facts[live] && !endsInReturn && slices.Contains(b.Succs, cfg.Exit) {
			r.pass.Reportf(r.stmt.Pos(), r.spec.fallOff, what, fs.shortName)
		}
	}
}

// classify sorts the uses of the resource in its scope: whether it
// leaves the scope's hands, whether a deferred call releases it, and
// how many direct release calls there are.
func (r *resource) classify(body *ast.BlockStmt) (escapes, deferred bool, releases int) {
	info := r.pass.TypesInfo
	// handsOff reports whether e passes the value itself along, rather
	// than something read through it.
	handsOff := func(e ast.Expr) bool {
		return !r.readsThrough(e) && identUses(info, e, r.obj)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			// A closure referencing the value either releases it (async
			// responsibility) or captures it; both take it out of this
			// scope's hands.
			if identUses(info, v.Body, r.obj) {
				escapes = true
			}
			return false
		case *ast.DeferStmt:
			lit, _ := v.Call.Fun.(*ast.FuncLit)
			if r.releases(v.Call) || (lit != nil && r.releasedIn(lit.Body)) {
				deferred = true
				return false
			}
		case *ast.CallExpr:
			if r.releases(v) {
				releases++
			}
			for _, arg := range v.Args {
				if handsOff(arg) {
					escapes = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				if handsOff(res) {
					escapes = true
				}
			}
		case *ast.AssignStmt:
			if v == r.stmt {
				return true
			}
			for _, rhs := range v.Rhs {
				if handsOff(rhs) {
					escapes = true
				}
			}
		case *ast.SendStmt:
			if handsOff(v.Value) {
				escapes = true
			}
		case *ast.CompositeLit:
			if identUses(info, v, r.obj) {
				escapes = true
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND && identUses(info, v.X, r.obj) {
				escapes = true
			}
		}
		return true
	})
	return escapes, deferred, releases
}

// readsThrough reports whether e is a selection on the value —
// obj.Field or obj.Method(...).
func (r *resource) readsThrough(e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		e = call.Fun
	}
	sel, ok := e.(*ast.SelectorExpr)
	return ok && isObjExpr(r.pass, sel.X, r.obj)
}

// releases reports whether call is a releasing method on the value.
func (r *resource) releases(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && r.spec.release[sel.Sel.Name] && isObjExpr(r.pass, sel.X, r.obj)
}

// releasedIn reports whether n contains a release call that runs when
// n does: not behind a defer, not inside a nested function literal.
func (r *resource) releasedIn(n ast.Node) bool {
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		return false
	}
	found := false
	forEachSkippingFuncLit(n, func(m ast.Node) {
		if c, ok := m.(*ast.CallExpr); ok && r.releases(c) {
			found = true
		}
	})
	return found
}

// errGuardBranch returns the successor of cond-block b taken when
// errObj is non-nil, or nil when b's condition is not an err-nil test
// on that object.
func errGuardBranch(pass *Pass, b *Block, errObj types.Object) *Block {
	bin, ok := ast.Unparen(b.Cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return nil
	}
	var other ast.Expr
	if isObjExpr(pass, bin.X, errObj) {
		other = bin.Y
	} else if isObjExpr(pass, bin.Y, errObj) {
		other = bin.X
	} else {
		return nil
	}
	if !isNilExpr(other) {
		return nil
	}
	if bin.Op == token.NEQ {
		return b.TrueSucc // err != nil → true branch is the failure path
	}
	return b.FalseSucc // err == nil → false branch is the failure path
}

func isObjExpr(pass *Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}

// nodeAssignsObj reports whether CFG node n assigns to obj (plain or
// short-form assignment outside any nested function literal).
func nodeAssignsObj(pass *Pass, n ast.Node, obj types.Object) bool {
	found := false
	forEachSkippingFuncLit(n, func(m ast.Node) {
		as, ok := m.(*ast.AssignStmt)
		if !ok {
			return
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok &&
				(pass.TypesInfo.Uses[id] == obj || pass.TypesInfo.Defs[id] == obj) {
				found = true
			}
		}
	})
	return found
}
