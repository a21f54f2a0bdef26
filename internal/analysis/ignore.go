package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The ignore mechanism: a comment of the form
//
//	//axmlvet:ignore lockedcall placement move is serialized by design
//	//axmlvet:ignore lockedcall,spanend reason...
//
// suppresses findings from the named analyzers on the same source line
// or the line immediately below the comment. The reason text is free
// form but conventionally required — an ignore without a justification
// should not survive review.

type ignoreSet struct {
	// keyed by filename → line → analyzer names suppressed at that line
	byLine map[string]map[int]map[string]bool
}

func collectIgnores(fset *token.FileSet, files []*ast.File) *ignoreSet {
	ign := &ignoreSet{byLine: make(map[string]map[int]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//axmlvet:ignore")
				if !ok {
					continue
				}
				names, _, _ := strings.Cut(strings.TrimSpace(text), " ")
				pos := fset.Position(c.Pos())
				m := ign.byLine[pos.Filename]
				if m == nil {
					m = make(map[int]map[string]bool)
					ign.byLine[pos.Filename] = m
				}
				// Suppress on the comment's own line (trailing comment)
				// and the next line (comment above the statement).
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := m[line]
					if set == nil {
						set = make(map[string]bool)
						m[line] = set
					}
					for _, n := range strings.Split(names, ",") {
						if n = strings.TrimSpace(n); n != "" {
							set[n] = true
						}
					}
				}
			}
		}
	}
	return ign
}

func (ign *ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	m := ign.byLine[pos.Filename]
	if m == nil {
		return false
	}
	set := m[pos.Line]
	return set[analyzer] || set["all"]
}
