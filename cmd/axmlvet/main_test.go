package main

import (
	"strings"
	"testing"

	"axml/internal/analysis"
)

// TestListAnalyzers pins the -list surface: every analyzer in the
// suite appears exactly once with its doc line.
func TestListAnalyzers(t *testing.T) {
	var sb strings.Builder
	suite := analysis.All()
	listAnalyzers(&sb, suite)
	out := sb.String()

	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(suite) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(suite), out)
	}
	seen := make(map[string]bool)
	for i, a := range suite {
		name := strings.Fields(lines[i])[0]
		if name != a.Name {
			t.Errorf("line %d lists %q, want %q", i, name, a.Name)
		}
		if seen[name] {
			t.Errorf("analyzer %q listed twice", name)
		}
		seen[name] = true
		if !strings.Contains(lines[i], a.Doc) {
			t.Errorf("line for %q missing doc", name)
		}
	}
	for _, want := range []string{"lockorder", "goleak", "spanend", "closeguard", "lockedcall", "senterr", "ctxflow"} {
		if !seen[want] {
			t.Errorf("suite missing %q", want)
		}
	}
}
