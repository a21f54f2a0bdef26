package view

import (
	"fmt"
	"testing"

	"axml/internal/opt"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// selectionDecisions is what each reader of the selection shape
// `for $x in doc(d)/path where … return …` decides for one query:
// rule (11)'s pushdown (xquery.Decompose: "pushed P kept K", or
// "refused"), view matching (viewShape), delta maintenance
// (xquery.NewDeltaFor), the value index (the Shape the point lookup
// asks Env.Index for, "" when it asks for none), the plan-cache key
// (QueryKey) and the estimator's output fraction (QuerySelectivity, to
// four digits).
var selectionDecisions = []struct {
	src       string
	decompose string
	viewShape bool
	delta     bool
	lookup    string
	key       string
	sel       string
}{
	// The benchmark's shapes. A bare selection would leave rule (11)'s
	// local part an identity layer, so Decompose refuses it; it is a
	// view's shape.
	{
		`for $i in doc("catalog")/item where $i/@id = "17" return $i/name`,
		"pushed 1 kept 0", false, true, "item @id",
		`for $i in doc("catalog")/item where ($i/@id = "17") return $i/name`, "0.08",
	},
	{
		`for $i in doc("catalog")/item where $i/price < 500 return $i`,
		"refused", true, true, "",
		`for $i in doc("catalog")/item where ($i/price < 500) return $i`, "0.08",
	},
	{
		`for $i in doc("catalog")/item where $i/price < 123 return <h7>{$i/name}</h7>`,
		"pushed 1 kept 0", false, true, "",
		`for $i in doc("catalog")/item where ($i/price < 123) return <h7>{$i/name}</h7>`, "0.08",
	},
	{
		`doc("catalog")/item[@id="17"]/price`,
		"refused", false, false, "",
		`doc("catalog")/item[(@id = "17")]/price`, "1",
	},
	// Two conjuncts, in both orders: one key, and the lookup finds its
	// conjunct wherever it stands.
	{
		`for $i in doc("d")/item where $i/price < 10 and $i/@id = "3" return $i/name`,
		"pushed 2 kept 0", false, true, "item @id",
		`for $i in doc("d")/item where (($i/@id = "3") and ($i/price < 10)) return $i/name`, "0.016",
	},
	{
		`for $i in doc("d")/item where $i/@id = "3" and $i/price < 10 return $i/name`,
		"pushed 2 kept 0", false, true, "item @id",
		`for $i in doc("d")/item where (($i/@id = "3") and ($i/price < 10)) return $i/name`, "0.016",
	},
	// A nested and-chain is one chain of three.
	{
		`for $i in doc("d")/item where $i/price > 2 and ($i/k = "x" and $i/price < 9) return $i`,
		"refused", true, true, "item k",
		`for $i in doc("d")/item where ((($i/k = "x") and ($i/price < 9)) and ($i/price > 2)) return $i`, "0.0032",
	},
	// A where reading doc("o"): the lookup narrows it, nothing else
	// takes it, and its key keeps the conjunct order.
	{
		`for $i in doc("d")/item where $i/@id = "1" and doc("o")/k = $i/k return $i`,
		"refused", false, false, "item @id",
		`for $i in doc("d")/item where (($i/@id = "1") and (doc("o")/k = $i/k)) return $i`, "0.016",
	},
	// The lookup takes the first for clause, not the first clause.
	{
		`let $k := "1" for $i in doc("d")/item where $i/@id = "1" return $i`,
		"refused", false, false, "item @id",
		`let $k := "1" for $i in doc("d")/item where ($i/@id = "1") return $i`, "0.08",
	},
	{
		`for $i in doc("d")/item let $n := $i/name where $i/name = "a" return $n`,
		"pushed 1 kept 0", false, true, "item name",
		`for $i in doc("d")/item let $n := $i/name where ($i/name = "a") return $n`, "0.08",
	},
	// A where that is not a path: delta maintenance takes it whole,
	// the estimator counts it as one predicate.
	{
		`for $i in doc("d")/item where <x/> return $i`,
		"refused", false, true, "",
		`for $i in doc("d")/item where <x/> return $i`, "0.08",
	},
	// A parameter in the source path.
	{
		`param $p; for $i in $p/item where $i/@id = "1" return $i/name`,
		"refused", false, false, "",
		`param $p; for $i in $p/item where ($i/@id = "1") return $i/name`, "0.08",
	},
	{
		`param $p; for $i in doc("d")/item[@id = $p] where $i/price < 5 return $i/name`,
		"refused", false, true, "",
		`param $p; for $i in doc("d")/item[(@id = $p)] where ($i/price < 5) return $i/name`, "0.08",
	},
	// The full-copy view, and a selection with no where.
	{
		`doc("d")`,
		"refused", true, false, "",
		`doc("d")`, "1",
	},
	{
		`for $i in doc("d")/item return $i`,
		"refused", true, true, "",
		`for $i in doc("d")/item return $i`, "0.4",
	},
	// An upward axis: the data peer may apply it, a copy may not.
	{
		`for $i in doc("d")/item where $i/../@v = "1" return $i/name`,
		"pushed 1 kept 0", false, false, "",
		`for $i in doc("d")/item where ($i/../@v = "1") return $i/name`, "0.08",
	},
	{
		`for $i in doc("d")/item where $i/../@v = "1" return $i`,
		"refused", false, false, "",
		`for $i in doc("d")/item where ($i/../@v = "1") return $i`, "0.08",
	},
	// An order by leaves the local part work to do.
	{
		`for $i in doc("d")/item where $i/price < 5 order by $i/name return $i`,
		"pushed 1 kept 0", false, true, "",
		`for $i in doc("d")/item where ($i/price < 5) order by $i/name return $i`, "0.08",
	},
	// A join: the conjunct reading $j stays local.
	{
		`for $i in doc("a")/x for $j in doc("b")/y where $i/k = $j/k and $i/p < 3 return <pair>{$i}{$j}</pair>`,
		"pushed 1 kept 1", false, false, "",
		`for $i in doc("a")/x for $j in doc("b")/y where (($i/k = $j/k) and ($i/p < 3)) return <pair>{$i}{$j}</pair>`, "0.016",
	},
}

// selectionDoc answers every doc() of the table.
var selectionDoc = xmltree.MustParse(`<catalog><item id="1"><name>a</name><price>5</price><k>x</k></item></catalog>`)

// askedShapes records the shapes a point lookup asks for, answering
// none of them, so the evaluation scans.
type askedShapes []string

func (a *askedShapes) Index(name string, _ *xmltree.Node, s xquery.Shape) (*xquery.ValueIndex, bool) {
	*a = append(*a, s.For+" "+s.Key)
	return nil, false
}

func TestSelectionDecisions(t *testing.T) {
	est := opt.NewEstimator(nil)
	for _, row := range selectionDecisions {
		q := xquery.MustParse(row.src)
		decompose := "refused"
		if d, ok := xquery.Decompose(q); ok {
			decompose = fmt.Sprintf("pushed %d kept %d", d.Pushed, d.Kept)
		}
		_, shaped := viewShape(q)
		args := make([][]*xmltree.Node, q.Arity())
		for i := range args {
			args[i] = []*xmltree.Node{selectionDoc}
		}
		_, delta := xquery.NewDeltaFor(q, args)
		var asked askedShapes
		env := &xquery.Env{Resolve: func(string) (*xmltree.Node, error) { return selectionDoc, nil }, Index: &asked}
		_, _ = q.Eval(env, args...) // only the shape asked for counts
		lookup := ""
		if len(asked) > 0 {
			lookup = asked[0]
		}
		key := QueryKey(q)
		sel := fmt.Sprintf("%.4g", est.QuerySelectivity(q))
		if decompose != row.decompose || shaped != row.viewShape || delta != row.delta ||
			lookup != row.lookup || key != row.key || sel != row.sel {
			t.Errorf("%s\n got: %q, %v, %v, %q,\n %q, %q\nwant: %q, %v, %v, %q,\n %q, %q",
				row.src, decompose, shaped, delta, lookup, key, sel,
				row.decompose, row.viewShape, row.delta, row.lookup, row.key, row.sel)
		}
	}
}
