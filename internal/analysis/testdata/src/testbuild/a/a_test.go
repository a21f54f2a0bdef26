package a

import "axml/internal/analysis/testdata/src/testbuild/b"

var _ [2]Options = b.Twice(Options{N: 1})
