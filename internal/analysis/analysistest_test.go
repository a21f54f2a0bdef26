package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
)

// TestResult reports fixture expectations that did not line up with the
// analyzer's actual findings.
type TestResult struct {
	Unmatched []Diagnostic // findings with no matching want comment
	Unwanted  []string     // want comments no finding matched
}

// RunFixtureWith loads testdata/src/<pkg> with loader, runs the
// analyzer over it, and checks the findings against `// want "regexp"`
// comments in the fixture source, x/tools analysistest style: every
// finding must match a want on its line, and every want must be matched
// by a finding. Findings suppressed by //axmlvet:ignore are filtered
// before matching, so ignore fixtures assert suppression by carrying no
// want comment. One loader (and its cached type-checked std/axml
// packages) serves many fixtures.
//
// Fixture packages may import both the standard library and real axml
// packages; the loader resolves the latter from the enclosing module.
func RunFixtureWith(loader *Loader, testdata string, a *Analyzer, pkg string) (*TestResult, error) {
	dir := filepath.Join(testdata, "src", pkg)
	p, err := loader.LoadDir(dir, pkg)
	if err != nil {
		return nil, err
	}
	diags, err := RunAnalyzers(p, []*Analyzer{a})
	if err != nil {
		return nil, err
	}

	type want struct {
		file string
		line int
		re   *regexp.Regexp
		text string
		hit  bool
	}
	var wants []*want
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, expr, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					_, expr, ok = strings.Cut(c.Text, "//want ")
				}
				if !ok {
					continue
				}
				expr = strings.TrimSpace(expr)
				unq, err := unquoteWant(expr)
				if err != nil {
					return nil, fmt.Errorf("%s: bad want %q: %w", p.Fset.Position(c.Pos()), expr, err)
				}
				re, err := regexp.Compile(unq)
				if err != nil {
					return nil, fmt.Errorf("%s: bad want regexp %q: %w", p.Fset.Position(c.Pos()), unq, err)
				}
				pos := p.Fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, text: expr})
			}
		}
	}

	res := &TestResult{}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			res.Unmatched = append(res.Unmatched, d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			res.Unwanted = append(res.Unwanted, fmt.Sprintf("%s:%d: no finding matched want %s", w.file, w.line, w.text))
		}
	}
	return res, nil
}

// unquoteWant strips the surrounding backquotes or double quotes from a
// want expression.
func unquoteWant(s string) (string, error) {
	if len(s) >= 2 {
		if s[0] == '`' && s[len(s)-1] == '`' {
			return s[1 : len(s)-1], nil
		}
		if s[0] == '"' && s[len(s)-1] == '"' {
			return strings.ReplaceAll(s[1:len(s)-1], `\"`, `"`), nil
		}
	}
	return "", fmt.Errorf("want expression must be quoted")
}
