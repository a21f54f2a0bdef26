// Command axmlvet runs the repo's invariant analyzers (internal/analysis)
// over the module, followed by the stock `go vet` passes. It exits
// nonzero when any analyzer reports a finding or vet fails.
//
// Usage:
//
//	axmlvet [flags] [dir]
//
//	-run  names     comma-separated analyzer subset (default: all)
//	-json           emit findings as a JSON array on stdout (skips go vet;
//	                pair with a separate `go vet ./...` in CI)
//	-tests          include in-package _test.go files in the analysis
//	-novet          skip the stock `go vet ./...` pass
//	-list           print the analyzer suite and exit
//
// The optional dir argument (default ".") selects the module to check:
// axmlvet finds the enclosing go.mod and analyzes every package under
// it. Module-wide analyzers (lockorder) see all packages at once; the
// rest run per package. Deliberate violations are suppressed in source
// with `//axmlvet:ignore <analyzer> reason` on the offending line or
// the line above; see internal/analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"axml/internal/analysis"
)

type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// listAnalyzers writes the suite, one analyzer per line, to w.
func listAnalyzers(w io.Writer, suite []*analysis.Analyzer) {
	for _, a := range suite {
		fmt.Fprintf(w, "%-12s %s\n", a.Name, a.Doc)
	}
}

func main() {
	var (
		runNames = flag.String("run", "", "comma-separated analyzer names to run (default all)")
		jsonOut  = flag.Bool("json", false, "emit findings as JSON (skips go vet)")
		tests    = flag.Bool("tests", false, "include in-package _test.go files")
		noVet    = flag.Bool("novet", false, "skip the stock `go vet ./...` pass")
		list     = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	suite := analysis.All()
	if *list {
		listAnalyzers(os.Stdout, suite)
		return
	}
	if *runNames != "" {
		keep := make(map[string]bool)
		for _, n := range strings.Split(*runNames, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		for n := range keep {
			fatalf("unknown analyzer %q (try -list)", n)
		}
		suite = sel
	}

	dir := "."
	if flag.NArg() > 0 {
		dir = flag.Arg(0)
	}

	loader, err := analysis.NewLoader(dir)
	if err != nil {
		fatalf("%v", err)
	}
	loader.IncludeTests = *tests
	pkgs, err := loader.LoadAll()
	if err != nil {
		fatalf("load: %v", err)
	}

	diags, err := analysis.RunModuleAnalyzers(pkgs, suite)
	if err != nil {
		fatalf("%v", err)
	}

	var findings []jsonFinding
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
		if !*jsonOut {
			fmt.Println(d)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []jsonFinding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatalf("encode: %v", err)
		}
		if len(findings) > 0 {
			os.Exit(1)
		}
		return
	}

	vetFailed := false
	if !*noVet {
		cmd := exec.Command("go", "vet", "./...")
		cmd.Dir = loader.ModuleRoot()
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			vetFailed = true
			fmt.Fprintf(os.Stderr, "axmlvet: go vet: %v\n", err)
		}
	}

	if len(findings) > 0 || vetFailed {
		fmt.Fprintf(os.Stderr, "axmlvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "axmlvet: "+format+"\n", args...)
	os.Exit(1)
}
