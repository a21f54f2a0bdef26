package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is a parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path, e.g. "axml/internal/wire"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module
// without go/packages: module-local imports resolve recursively through
// the loader itself, and standard-library imports go through the
// compiler's source importer (the container has no export data for a
// separate toolchain, but the full stdlib source ships with it).
//
// With IncludeTests, the packages LoadDir and LoadAll return are test
// builds, as `go vet` checks them: the package's in-package _test.go
// files merged in, every module-local import resolved to its plain
// package. A test build is a different *types.Package from the plain
// one its importers see; the call graph matches functions by name for
// that reason.
type Loader struct {
	Fset         *token.FileSet
	IncludeTests bool // return test builds (in-package _test.go files merged)

	modPath string
	modRoot string
	std     types.Importer
	pkgs    map[string]*Package // plain packages
	tests   map[string]*Package // test builds
	loading map[string]bool
}

// NewLoader locates the module containing startDir (by walking up to
// go.mod) and returns a loader rooted there.
func NewLoader(startDir string) (*Loader, error) {
	dir, err := filepath.Abs(startDir)
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			modPath := ""
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					modPath = strings.TrimSpace(rest)
					break
				}
			}
			if modPath == "" {
				return nil, fmt.Errorf("no module path in %s/go.mod", dir)
			}
			fset := token.NewFileSet()
			return &Loader{
				Fset:    fset,
				modPath: modPath,
				modRoot: dir,
				std:     importer.ForCompiler(fset, "source", nil),
				pkgs:    make(map[string]*Package),
				tests:   make(map[string]*Package),
				loading: make(map[string]bool),
			}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no go.mod found above %s", startDir)
		}
		dir = parent
	}
}

// ModuleRoot returns the directory containing go.mod.
func (l *Loader) ModuleRoot() string { return l.modRoot }

// Import implements types.Importer: module-local paths load through the
// loader as plain packages, everything else through the stdlib source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) loadPath(importPath string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.modPath), "/")
	return l.load(filepath.Join(l.modRoot, filepath.FromSlash(rel)), importPath, false)
}

// LoadDir parses and type-checks the package in dir under the given
// import path — its test build when IncludeTests is set. Results are
// cached by import path. Files excluded by build constraints
// (//go:build lines, _GOOS/_GOARCH suffixes) under the default build
// context are skipped, as the go tool would. External test packages
// (package foo_test) are never loaded.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	return l.load(dir, importPath, l.IncludeTests)
}

func (l *Loader) load(dir, importPath string, withTests bool) (*Package, error) {
	cache := l.pkgs
	if withTests {
		cache = l.tests
	}
	if pkg, ok := cache[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", importPath, err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") && !withTests {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("load %s: %w", importPath, err)
		} else if !match {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			continue // external test package
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			return nil, fmt.Errorf("%s: mixed packages %s and %s", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, firstErr)
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	cache[importPath] = pkg
	return pkg, nil
}

// LoadAll loads every package of the module (skipping testdata, vendor,
// hidden directories, and nested modules), returning them sorted by
// import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.modRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == l.modRoot {
				return nil
			}
			name := d.Name()
			if name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module is not part of this one
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") &&
			!strings.HasPrefix(d.Name(), ".") && !strings.HasPrefix(d.Name(), "_") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var pkgs []*Package
	for _, dir := range dirs {
		if seen[dir] {
			continue
		}
		seen[dir] = true
		rel, err := filepath.Rel(l.modRoot, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.modPath
		if rel != "." {
			importPath = l.modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
