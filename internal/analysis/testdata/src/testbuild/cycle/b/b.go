package b

import "axml/internal/analysis/testdata/src/testbuild/cycle/a"

func Double(o a.Options) int { return 2 * o.N }
