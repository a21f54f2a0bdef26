// Package analysis is a self-contained, stdlib-only re-implementation
// of the golang.org/x/tools/go/analysis surface this repo needs. The
// container that builds axml has no module proxy access, so instead of
// depending on x/tools we mirror its core shape — Analyzer, Pass,
// Diagnostic — over go/ast + go/types, with a module-aware loader
// (load.go) and an analysistest-style fixture runner (analysistest.go).
//
// Analyzers encode repo invariants that reviews kept rediscovering by
// hand (see cmd/axmlvet):
//
//	atomicfield  mixed atomic/plain access to the same struct field
//	ctxflow      ctx-taking functions that drop ctx or pass Background()
//	lockedcall   network calls / channel sends while holding a mutex
//	lockorder    inconsistent mutex acquisition order across the module
//	spanend      obs.StartSpan results that are not End()ed on all paths
//	epochpin     peer.Snapshot handles that are not Release()d on all paths
//	closeguard   session Rows / cursors that are never Closed
//	goleak       goroutines that can block forever (chans, tickers, locks)
//	senterr      sentinel errors compared with == instead of errors.Is
//
// The path-sensitive checks share a CFG layer: cfg.go builds
// per-function control-flow graphs, dataflow.go solves forward
// may-problems over them, and callgraph.go summarizes static calls for
// the interprocedural passes (lockorder). spanend, epochpin, closeguard
// and goleak's ticker rule are one acquire/release engine driven by a
// table of resource specs (mustrelease.go).
//
// Deliberate violations are annotated in source with
//
//	//axmlvet:ignore <analyzer>[,<analyzer>] <reason>
//
// on the offending line or the line directly above it (see ignore.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. It mirrors
// x/tools/go/analysis.Analyzer minus the dependency machinery (facts,
// requires) that axml's checks do not need. Per-package analyzers set
// Run; whole-module analyzers (lockorder needs the cross-package call
// graph) set RunModule instead and see every loaded package at once.
type Analyzer struct {
	Name      string // short lowercase identifier, used by //axmlvet:ignore
	Doc       string // one-paragraph description of the invariant
	Run       func(*Pass) error
	RunModule func(*ModulePass) error
}

// A ModulePass provides a module-wide analyzer with every loaded
// package of the module.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	mp.diags = append(mp.diags, Diagnostic{
		Analyzer: mp.Analyzer.Name,
		Pos:      mp.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is a single finding at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// typeOf is a nil-safe shorthand for the type of an expression.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// objectOf resolves an identifier to its object (may be nil).
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// RunAnalyzers applies each analyzer to pkg, filters findings through
// the //axmlvet:ignore comments in the package's files, and returns the
// surviving diagnostics sorted by position. Module-wide analyzers see a
// single-package module view — the fixture runner uses exactly that.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunModuleAnalyzers([]*Package{pkg}, analyzers)
}

// RunModuleAnalyzers applies each analyzer across pkgs: per-package
// analyzers to every package, module-wide analyzers once over the
// whole set. Findings are filtered through //axmlvet:ignore comments,
// deduplicated, and returned sorted by position.
func RunModuleAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	var allFiles []*ast.File
	for _, pkg := range pkgs {
		allFiles = append(allFiles, pkg.Files...)
	}
	ign := collectIgnores(fset, allFiles)

	var raw []Diagnostic
	for _, a := range analyzers {
		switch {
		case a.RunModule != nil:
			mp := &ModulePass{Analyzer: a, Fset: fset, Pkgs: pkgs}
			if err := a.RunModule(mp); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			raw = append(raw, mp.diags...)
		case a.Run != nil:
			for _, pkg := range pkgs {
				pass := &Pass{
					Analyzer:  a,
					Fset:      pkg.Fset,
					Files:     pkg.Files,
					Pkg:       pkg.Types,
					TypesInfo: pkg.Info,
				}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
				}
				raw = append(raw, pass.diags...)
			}
		}
	}

	type diagKey struct {
		analyzer string
		pos      token.Position
		message  string
	}
	seen := make(map[diagKey]bool, len(raw))
	var out []Diagnostic
	for _, d := range raw {
		k := diagKey{d.Analyzer, d.Pos, d.Message}
		if ign.suppressed(d.Analyzer, d.Pos) || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicField,
		CtxFlow,
		LockedCall,
		LockOrder,
		SpanEnd,
		EpochPin,
		CloseGuard,
		GoLeak,
		SentErr,
	}
}
