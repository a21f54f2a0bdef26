package analysis

import (
	"strings"
	"testing"
)

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

// TestLoadDirTestBuild: with IncludeTests a package's in-package test
// files join it alone, and the packages they import load without
// theirs, as go vet builds them. Two packages whose tests import each
// other both load; a test importing a package that imports the one
// under test is an import cycle, as go test says too.
func TestLoadDirTestBuild(t *testing.T) {
	const fixtures = "axml/internal/analysis/testdata/src/testbuild/"
	loader, err := NewLoader("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	loader.IncludeTests = true
	for _, tc := range []struct {
		pkg   string
		files int
		err   string
	}{
		{pkg: "a", files: 2},
		{pkg: "b", files: 2},
		{pkg: "cycle/a", err: "import cycle through " + fixtures + "cycle/a"},
	} {
		pkg, err := loader.LoadDir("testdata/src/testbuild/"+tc.pkg, fixtures+tc.pkg)
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want %q", tc.pkg, err, tc.err)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.pkg, err)
		case len(pkg.Files) != tc.files:
			t.Errorf("%s: loaded %d files, want %d", tc.pkg, len(pkg.Files), tc.files)
		}
	}
}
