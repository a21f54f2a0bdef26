package xquery

import (
	"slices"
	"testing"

	"axml/internal/xmltree"
)

// routesDoc is the one document FuzzSelectionRoutes reads, whatever
// doc() names: keys that several items share, a mixed-content name,
// items under items, attributes on the root and on items.
var routesDoc = xmltree.MustParse(`<catalog v="1">` +
	`<item id="1"><name>dup</name><price>5</price></item>` +
	`<item id="2"><name>dup</name><name>dup</name><price>120</price></item>` +
	`<item id="3"><name>mi<b>x</b>ed</name><price>7</price></item>` +
	`<item id="4"><item id="5"><name>inner</name><price>3</price></item><name>n-4</name></item>` +
	`<item id="17"><name>a</name><price>30</price><k>x</k></item>` +
	`</catalog>`)

// FuzzSelectionRoutes holds the routes that take a selection apart to
// the answer of the query they replace, over routesDoc:
//   - rule (11): when Decompose accepts q, Local applied to the forest
//     Remote returns gives q's trees;
//   - delta maintenance: when NewDeltaFor accepts q, the additions of
//     its first step are q's trees.
//
// Trees compare as multisets of their canonical serialisations; a
// query that fails on its own is not compared. Parameters are bound to
// one number-valued element, as TestCursorEagerEquivalence binds them.
func FuzzSelectionRoutes(f *testing.F) {
	for _, src := range fuzzCorpus(f) {
		f.Add(src)
	}
	for _, src := range benchmarkShapes {
		f.Add(src)
	}
	// Rule (11) answered these wrong when it pushed a conjunct over a
	// $i that a later clause binds again, or left the local part an
	// axis that leaves the shipped copies.
	f.Add(`for $i in doc("d")/item for $i in doc("d")/item/item where $i/@id = "5" return $i`)
	f.Add(`for $i in doc("d")/item let $i := $i/item where $i/@id = "5" return $i/name`)
	f.Add(`for $i in doc("d")/item where $i/price < 10 return $i/../@v`)
	f.Add(`for $i in doc("d")/item where $i/price < 10 return count($i/ancestor::*)`)
	env := &Env{Resolve: func(string) (*xmltree.Node, error) { return routesDoc, nil }}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		args := make([][]*xmltree.Node, q.Arity())
		for i := range args {
			args[i] = []*xmltree.Node{xmltree.E("v", "100")}
		}
		want, err := q.Eval(env, args...)
		if err != nil {
			return
		}
		if d, ok := Decompose(q); ok {
			shipped, err := d.Remote.Eval(env)
			if err != nil {
				t.Fatalf("%s: remote part %s: %v", src, d.Remote, err)
			}
			got, err := d.Local.Eval(env, append([][]*xmltree.Node{shipped}, args...)...)
			if err != nil {
				t.Fatalf("%s: local part %s: %v", src, d.Local, err)
			}
			if g, w := canonicalBag(got), canonicalBag(want); !slices.Equal(g, w) {
				t.Fatalf("%s: decomposed into\n  %s\n  %s\nanswers %q, want %q", src, d.Remote, d.Local, g, w)
			}
		}
		if inc, ok := NewDeltaFor(q, args); ok {
			ev, err := inc.DeltaEventsWith(env)
			if err != nil {
				t.Fatalf("%s: first delta step: %v", src, err)
			}
			if g, w := canonicalBag(ev.AddedTrees()), canonicalBag(want); !slices.Equal(g, w) {
				t.Fatalf("%s: first delta step adds %q, want %q", src, g, w)
			}
		}
	})
}

// canonicalBag is a forest as the sorted canonical serialisations of
// its trees.
func canonicalBag(forest []*xmltree.Node) []string {
	out := make([]string, len(forest))
	for i, n := range forest {
		out[i] = xmltree.Canonical(n)
	}
	slices.Sort(out)
	return out
}
