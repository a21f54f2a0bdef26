package b

import "axml/internal/analysis/testdata/src/testbuild/a"

var _ = Twice(a.Options{})
