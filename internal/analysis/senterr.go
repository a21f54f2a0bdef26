package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SentErr flags comparisons of this module's typed error sentinels
// (package-level `var ErrFoo = ...` of type error) using == or != or a
// switch case: errors travel across wrapping layers here (core wraps
// peer errors, session wraps core, wire reconstructs sentinels from
// x:error codes), so identity comparison silently stops matching the
// moment anyone adds a fmt.Errorf("%w") frame. Use errors.Is.
//
// Comparisons against nil and sentinels from other modules (io.EOF
// etc.) are not flagged.
var SentErr = &Analyzer{
	Name: "senterr",
	Doc:  "module error sentinels must be compared with errors.Is, never ==",
	Run:  runSentErr,
}

func runSentErr(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.BinaryExpr:
				if v.Op != token.EQL && v.Op != token.NEQ {
					return true
				}
				for i, side := range []ast.Expr{v.X, v.Y} {
					other := []ast.Expr{v.Y, v.X}[i]
					if s := sentinelOf(pass, side); s != nil && !isNilExpr(other) {
						pass.Reportf(v.Pos(), "sentinel %s compared with %s; use errors.Is", s.Name(), v.Op)
						break
					}
				}
			case *ast.SwitchStmt:
				if v.Tag == nil {
					return true
				}
				if t := pass.typeOf(v.Tag); t == nil || !isErrorType(t) {
					return true
				}
				for _, cc := range v.Body.List {
					clause, ok := cc.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, expr := range clause.List {
						if s := sentinelOf(pass, expr); s != nil {
							pass.Reportf(expr.Pos(), "sentinel %s in switch case compares with ==; use errors.Is", s.Name())
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// sentinelOf resolves e to a module-level error sentinel variable
// (package-scope, name starting with "Err", error-typed), or nil.
func sentinelOf(pass *Pass, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return nil
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || obj.Pkg() == nil || !isModulePath(obj.Pkg()) {
		return nil
	}
	if !strings.HasPrefix(obj.Name(), "Err") || !isErrorType(obj.Type()) {
		return nil
	}
	// Package-scope only: locals named Err... are not sentinels.
	if obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	return obj
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isNilExpr(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
