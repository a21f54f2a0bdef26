package xpath

import (
	"errors"
	"reflect"
	"testing"

	"axml/internal/workload"
	"axml/internal/xmltree"
)

// compareCatalog is the perf ledger's catalog shape
// (benchmarks/oracle.go): 2,000 items, each <item id cat><name/>
// <price/><desc/></item>.
func compareCatalog() *xmltree.Node {
	return workload.Catalog(workload.CatalogSpec{Items: 2000, PriceMax: 1000, DescWords: 10, Seed: 1})
}

// TestStreamedComparisonAllocatesNothing pins what a where clause costs
// a candidate it rejects: comparing one bound item's child or attribute
// with a literal reads the item's nodes and makes none.
func TestStreamedComparisonAllocatesNothing(t *testing.T) {
	root := compareCatalog()
	item := root.Children[1000]
	ctx := &Context{Node: root, Vars: noVars.Bind("i", NodeSet{item})}
	for _, src := range []string{`$i/@id = "K"`, `"K" = $i/@id`, `$i/price < 500`, `$i/@* = "K"`} {
		c := MustCompile(src)
		checkComparison(t, c, ctx)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.Eval(ctx); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.0f times per evaluation, want 0", src, allocs)
		}
	}
}

// FuzzCompareAgainstReference compares a fuzzed path with a fuzzed
// literal — the operator picked by op, the literal on the left when
// litLeft is set — over the ledger's catalog and the differential one,
// and requires the current evaluator and the reference to agree: the
// same boolean, or the same error text. Inputs that do not compile to
// such a comparison are skipped.
func FuzzCompareAgainstReference(f *testing.F) {
	for i, row := range streamedRows {
		f.Add(row.path, row.lit, uint8(i), i%2 == 0)
	}
	contexts := streamedContexts(f)
	f.Fuzz(func(t *testing.T, path, lit string, op uint8, litLeft bool) {
		// Long paths only multiply the work per input (a chain of //
		// steps over 2,000 items is quadratic in the reference).
		if len(path) > 48 {
			t.Skip()
		}
		p, err := Compile(path)
		if err != nil {
			t.Skip()
		}
		l, err := Compile(lit)
		if err != nil {
			t.Skip()
		}
		if _, ok := literalOperand(l.Root); !ok {
			t.Skip()
		}
		cmp := &BinaryExpr{Op: compareOps[int(op)%len(compareOps)], L: p.Root, R: l.Root}
		if litLeft {
			cmp.L, cmp.R = cmp.R, cmp.L
		}
		c := &Compiled{Source: cmp.String(), Root: cmp}
		for _, ctx := range contexts {
			checkComparison(t, c, ctx)
		}
	})
}

// FuzzCompile fuzzes compilation alone: Compile never panics, an
// accepted text's String() compiles to the same tree and the same
// String() (queries are shipped to other peers as text), and a refused
// one is a *SyntaxError at an offset within the text.
func FuzzCompile(f *testing.F) {
	for _, src := range compileErrorSources {
		f.Add(src)
	}
	for _, src := range renderSources {
		f.Add(src)
	}
	for _, row := range streamedRows {
		f.Add(row.path)
		f.Add(row.lit)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Compile(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) || se.Pos < 0 || se.Pos > len(src) {
				t.Fatalf("Compile(%q): %v: want a syntax error at an offset within the text", src, err)
			}
			return
		}
		rendered := c.String()
		c2, err := Compile(rendered)
		if err != nil {
			t.Fatalf("Compile(%q) renders %q, which does not compile: %v", src, rendered, err)
		}
		if !reflect.DeepEqual(c2.Root, c.Root) {
			t.Fatalf("Compile(%q) renders %q, which compiles to another expression", src, rendered)
		}
		if again := c2.String(); again != rendered {
			t.Fatalf("Compile(%q) renders %q, which renders %q", src, rendered, again)
		}
	})
}
