package analysis

import "testing"

// TestMustReleaseNewRow drives the engine with a row no shipped
// analyzer uses: a new resource is a resourceSpec and a fixture.
func TestMustReleaseNewRow(t *testing.T) {
	toy := mustReleaseAnalyzer("toy", "acquire results must be release()d on all paths", &resourceSpec{
		callee:   "mustrelease.acquire",
		release:  map[string]bool{"release": true},
		noun:     "toy",
		never:    "%s is acquired but never released",
		atReturn: "return without releasing %s (acquired at line %d)",
		fallOff:  "%s may not be released when %s falls off the end",
	})
	testFixture(t, toy, "mustrelease")
}
