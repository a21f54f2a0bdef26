package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicField flags struct fields that are accessed through sync/atomic
// functions in one place and through plain reads or writes in another —
// the torn-read class fixed in the wire server's stream counters
// (PR 6). A field either belongs to the atomic domain everywhere or
// nowhere; the safe migration is a typed atomic (atomic.Int64 etc.), which this analyzer
// ignores because the type system already enforces the discipline.
//
// Composite-literal initialization is exempt: construction happens
// before the value is shared.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "a struct field accessed via sync/atomic must be accessed atomically everywhere",
	Run:  runAtomicField,
}

func runAtomicField(pass *Pass) error {
	// Pass 1: find fields whose address is taken as the first argument
	// of a sync/atomic function. Remember both the field object and the
	// selector nodes already blessed as atomic uses.
	atomicFields := make(map[*types.Var]ast.Node) // field -> first atomic use
	blessed := make(map[*ast.SelectorExpr]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op.String() != "&" {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fv := fieldOf(pass, sel); fv != nil {
					if _, seen := atomicFields[fv]; !seen {
						atomicFields[fv] = sel
					}
					blessed[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Pass 2: any other selector resolving to one of those fields is a
	// plain access. &s.f that feeds an atomic call was blessed above;
	// &s.f anywhere else (aliasing) is still suspect and is reported.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fv := fieldOf(pass, sel)
			if fv == nil || blessed[sel] {
				return true
			}
			if _, isAtomic := atomicFields[fv]; isAtomic {
				pass.Reportf(sel.Pos(), "field %s is accessed with sync/atomic elsewhere; plain access can tear", fv.Name())
			}
			return true
		})
	}
	return nil
}

// fieldOf resolves a selector to the struct field it selects, or nil.
func fieldOf(pass *Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}
