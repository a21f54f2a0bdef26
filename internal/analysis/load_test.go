package analysis

import "testing"

// TestLoadDirHonoursBuildConstraints: two files that declare the same
// constant under //go:build race and //go:build !race are one package
// with one of them in it, as they are for the go tool.
func TestLoadDirHonoursBuildConstraints(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/buildtags", "buildtags")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 {
		t.Errorf("loaded %d files, want the one the build context selects", len(pkg.Files))
	}
}
