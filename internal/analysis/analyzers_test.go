package analysis

import (
	"sync"
	"testing"
)

// One loader for the whole suite: the expensive part of a fixture run
// is type-checking the stdlib (and axml packages) from source, and the
// cache makes that a one-time cost.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader("testdata/src")
})

func testFixture(t *testing.T, a *Analyzer, pkg string) {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFixtureWith(loader, "testdata", a, pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Unmatched {
		t.Errorf("unexpected finding: %s", d)
	}
	for _, msg := range res.Unwanted {
		t.Errorf("%s", msg)
	}
}

func TestCtxFlow(t *testing.T)    { testFixture(t, CtxFlow, "ctxflow") }
func TestLockedCall(t *testing.T) { testFixture(t, LockedCall, "lockedcall") }
func TestLockOrder(t *testing.T)  { testFixture(t, LockOrder, "lockorder") }
func TestSpanEnd(t *testing.T)    { testFixture(t, SpanEnd, "spanend") }
func TestEpochPin(t *testing.T)   { testFixture(t, EpochPin, "epochpin") }
func TestCloseGuard(t *testing.T) { testFixture(t, CloseGuard, "closeguard") }
func TestGoLeak(t *testing.T)     { testFixture(t, GoLeak, "goleak") }
func TestSentErr(t *testing.T)    { testFixture(t, SentErr, "senterr") }

// TestAnalyzerNames pins the published names: //axmlvet:ignore comments
// in the tree reference them, so renames are breaking changes. Names
// must also be unique — the -run filter, baseline keys, and ignore
// comments all key on them.
func TestAnalyzerNames(t *testing.T) {
	want := []string{"ctxflow", "lockedcall", "lockorder", "spanend", "epochpin", "closeguard", "goleak", "senterr"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(got), len(want))
	}
	seen := make(map[string]bool)
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil && a.RunModule == nil {
			t.Errorf("analyzer %q has neither Run nor RunModule", a.Name)
		}
	}
}
