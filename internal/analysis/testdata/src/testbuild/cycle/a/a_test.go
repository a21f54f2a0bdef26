package a

import "axml/internal/analysis/testdata/src/testbuild/cycle/b"

var _ = b.Double(Options{N: 1})
