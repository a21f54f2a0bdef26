package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// callgraph.go builds the module-wide call-graph summary used by the
// interprocedural analyzers (lockorder). Every function or method
// declared in the loaded packages gets a node; edges are direct,
// statically-resolved calls to other module-declared functions.
// Dynamic calls (function values, interface methods) have no edge —
// analyzers built on the graph are deliberately under- rather than
// over-approximate. Calls inside function literals are excluded: a
// closure's body runs at an unknown time on an unknown goroutine, so
// attributing its calls to the enclosing function would poison
// held-lock reasoning.

// A CallSite is one direct call from a module function's body.
type CallSite struct {
	Callee  *types.Func
	Pos     token.Pos
	InGo    bool // `go callee(...)`: runs concurrently, not nested under caller state
	InDefer bool // `defer callee(...)`: runs at function exit
}

// A FuncInfo is one declared function with its resolved call sites.
type FuncInfo struct {
	Fn      *types.Func
	Decl    *ast.FuncDecl
	Pkg     *Package
	Callees []CallSite
}

// A CallGraph indexes every function declared in the analyzed packages
// by its declaring *types.Func object.
type CallGraph struct {
	Funcs  map[*types.Func]*FuncInfo
	byName map[string]*types.Func
}

// declared returns the analyzed declaration fn refers to, or nil. The
// match is by full name: a package's test build (Loader.IncludeTests)
// declares its own *types.Func for a function its importers see
// through the plain package.
func (cg *CallGraph) declared(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return cg.byName[fn.FullName()]
}

// BuildCallGraph summarizes the direct call structure of pkgs.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{Funcs: make(map[*types.Func]*FuncInfo), byName: make(map[string]*types.Func)}
	for _, pkg := range pkgs {
		for _, fd := range funcDecls(pkg.Files) {
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			cg.Funcs[fn] = &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
			cg.byName[fn.FullName()] = fn
		}
	}
	for _, fi := range cg.Funcs {
		info := fi.Pkg.Info
		goCalls := make(map[*ast.CallExpr]bool)
		deferCalls := make(map[*ast.CallExpr]bool)
		forEachSkippingFuncLit(fi.Decl.Body, func(n ast.Node) {
			switch v := n.(type) {
			case *ast.GoStmt:
				goCalls[v.Call] = true
			case *ast.DeferStmt:
				deferCalls[v.Call] = true
			}
		})
		forEachSkippingFuncLit(fi.Decl.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			callee := cg.declared(calleeOf(info, call))
			if callee == nil {
				return
			}
			fi.Callees = append(fi.Callees, CallSite{
				Callee:  callee,
				Pos:     call.Pos(),
				InGo:    goCalls[call],
				InDefer: deferCalls[call],
			})
		})
	}
	return cg
}
