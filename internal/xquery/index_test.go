package xquery_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"axml/internal/peer"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// lookupForms are the generated queries of TestIndexedLookupsMatchScan,
// each formatted with a key value. The first ten are point lookups a
// value index narrows (two of them fail on an unbound variable); the
// rest are forms it does not serve, which must still answer by
// scanning.
var lookupForms = []string{
	`for $i in doc("catalog")/item where $i/@id = "%s" return $i`,
	`for $i in doc("catalog")/item where "%s" = $i/name return $i/@id`,
	`for $i in doc("catalog")/item where $i/item/name = "%s" return $i/name`,
	`for $i in doc("catalog")/item/item where $i/name = "%s" return $i`,
	`for $i in doc("catalog")/item where $i/price < 20 and $i/@id = "%s" return <r>{$i/name}</r>`,
	`for $i in doc("catalog")/item let $n := $i/name where $i/name = "%s" return $n`,
	`for $i in doc("catalog")/item for $j in doc("catalog")/item where $i/@id = "%s" and $j/@id = $i/@id return $j/name`,
	`for $i in doc("catalog")/item where $i/@id = "%s" and $nope = 1 return $i`,
	`for $i in doc("catalog")/item where $nope = 1 and $i/@id = "%s" return $i`,
	`let $all := doc("catalog")/item for $i in doc("catalog")/item where $i/name/b = "%s" return count($all)`,
	`for $i in doc("catalog")/item for $i in doc("catalog")/item/item where $i/@id = "%s" return $i`,
	`for $i in doc("catalog")/item where $i/@id != "%s" return $i/name`,
	`for $i in doc("catalog")/item where $i/name[1] = "%s" return $i`,
	`for $i in doc("catalog")//item where $i/name = "%s" return $i`,
	`for $i in doc("catalog")/item where $i/@id = "%s" or $i/price < 3 return $i`,
}

// numberForm compares with a number literal: formatted only with
// values that are numbers.
const numberForm = `for $i in doc("catalog")/item where $i/@id = %s return $i/name`

// TestIndexedLookupsMatchScan: every query over a pinned root answers
// the same rows, in the same order, with the handle's value indexes as
// by scanning the root. The queries are FuzzParse's seeds and the
// lookup forms over every key value the document holds, and they run
// after each of 40 generated commits. The document starts with keys
// three items share, an item with two matching names, a mixed-content
// name, and items under items.
func TestIndexedLookupsMatchScan(t *testing.T) {
	p := peer.New("p")
	doc := xmltree.MustParse(`<catalog>` +
		`<item id="1"><name>dup</name><price>5</price></item>` +
		`<item id="2"><name>dup</name><name>dup</name><price>5</price></item>` +
		`<item id="2"><name>mi<b>x</b>ed</name><price>7</price></item>` +
		`<item id="3"><item id="4"><name>inner</name></item><name>n-4</name></item>` +
		`<item id="5"><name>a</name><name>b</name><price>30</price></item>` +
		`<item id="2"><name>dup</name></item>` +
		`</catalog>`)
	if err := p.InstallDocument("catalog", doc); err != nil {
		t.Fatal(err)
	}
	var seeds []string
	for _, src := range xquery.FuzzParseSeeds {
		if q, err := xquery.Parse(src); err == nil && q.Arity() == 0 {
			seeds = append(seeds, src)
		}
	}
	check := func(after string) {
		h := p.Snapshot()
		defer h.Release()
		root, err := h.Root("catalog")
		if err != nil {
			t.Fatal(err)
		}
		counted := &countedIndexes{h: h}
		indexed := &xquery.Env{Resolve: h.Resolver(), Index: counted}
		scanned := &xquery.Env{Resolve: h.Resolver()}
		queries := slices.Clone(seeds)
		for _, v := range keyValues(root) {
			for _, form := range lookupForms {
				queries = append(queries, fmt.Sprintf(form, v))
			}
			if _, err := strconv.Atoi(v); err == nil {
				queries = append(queries, fmt.Sprintf(numberForm, v))
			}
		}
		for _, src := range queries {
			q := xquery.MustParse(src)
			got, gerr := evalRows(q, indexed)
			want, werr := evalRows(q, scanned)
			if !slices.Equal(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Errorf("after %s, %s:\n  indexed %q %v\n  scanned %q %v", after, src, got, gerr, want, werr)
			}
		}
		if counted.answered == 0 {
			t.Errorf("after %s: no query was answered from an index", after)
		}
	}
	check("the install")
	r := rand.New(rand.NewSource(40))
	for step := range 40 {
		h := p.Snapshot()
		root, err := h.Root("catalog")
		h.Release()
		if err != nil {
			t.Fatal(err)
		}
		e := workload.NextEdit(r, root, 100+step)
		if err := p.Write(func(tx *peer.Tx) error { return applyEdit(tx, e) }); err != nil {
			t.Fatalf("%s: %v", e.What, err)
		}
		check(fmt.Sprintf("commit %d (%s)", step+1, e.What))
	}
}

// countedIndexes is a handle's indexes, counting the lookups they
// answer.
type countedIndexes struct {
	h        *peer.Handle
	answered int
}

func (c *countedIndexes) Index(name string, root *xmltree.Node, s xquery.Shape) (*xquery.ValueIndex, bool) {
	idx, ok := c.h.Index(name, root, s)
	if ok {
		c.answered++
	}
	return idx, ok
}

// keyValues lists every @id and every name's string-value under root,
// once each, and one value no node has.
func keyValues(root *xmltree.Node) []string {
	seen := map[string]bool{"nope": true}
	out := []string{"nope"}
	root.Walk(func(n *xmltree.Node) bool {
		vals := []string{}
		if id, ok := n.Attr("id"); ok {
			vals = append(vals, id)
		}
		if n.Kind == xmltree.ElementNode && n.Label == "name" {
			vals = append(vals, n.TextContent())
		}
		for _, v := range vals {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return true
	})
	return out
}

func evalRows(q *xquery.Query, env *xquery.Env) ([]string, error) {
	out, err := q.Eval(env)
	rows := make([]string, len(out))
	for i, n := range out {
		rows[i] = xmltree.Serialize(n)
	}
	return rows, err
}

// applyEdit makes a generated edit in tx.
func applyEdit(tx *peer.Tx, e workload.Edit) error {
	switch {
	case e.Child == 0:
		return tx.Append(e.Parent, e.Tree)
	case e.Tree == nil:
		return tx.Remove(e.Parent, e.Child)
	}
	return tx.Replace(e.Parent, e.Child, e.Tree)
}
