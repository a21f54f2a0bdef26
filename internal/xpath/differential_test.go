package xpath

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"axml/internal/xmltree"
)

// sameNode is node identity for the comparison: stored nodes by
// pointer; the nodes every evaluation makes afresh by what they stand
// for — an attribute by its name, value and owning element, the
// document node of an absolute path by the root below it.
func sameNode(a, b *xmltree.Node) bool {
	switch {
	case a.Kind == xmltree.AttrNode || b.Kind == xmltree.AttrNode:
		return a.Kind == b.Kind && a.Label == b.Label && a.Text == b.Text && a.Parent == b.Parent
	case a.Label == "#document" && b.Label == "#document":
		return a.Children[0] == b.Children[0]
	}
	return a == b
}

func describe(v Value) string {
	ns, ok := v.(NodeSet)
	if !ok {
		return fmt.Sprintf("%T(%v)", v, v)
	}
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = fmt.Sprintf("%s:%s=%q", n.Kind, n.Label, n.Text)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func sameValue(got, want Value) bool {
	gns, gok := got.(NodeSet)
	wns, wok := want.(NodeSet)
	if gok != wok {
		return false
	}
	if !gok {
		gf, isNum := got.(Number)
		if wf, ok := want.(Number); isNum && ok && math.IsNaN(float64(gf)) && math.IsNaN(float64(wf)) {
			return true
		}
		return got == want
	}
	if len(gns) != len(wns) {
		return false
	}
	for i := range gns {
		if !sameNode(gns[i], wns[i]) {
			return false
		}
	}
	return true
}

// checkReference evaluates expr with the current evaluator and with the
// reference and fails the test unless both fail or both return the
// same value — for node-sets, the same nodes in the same order.
func checkReference(t testing.TB, expr string, ctx *Context) {
	t.Helper()
	c, err := Compile(expr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	got, gotErr := c.Eval(ctx)
	want, wantErr := refEval(c.Root, ctx)
	if (gotErr != nil) != (wantErr != nil) {
		t.Errorf("%q: error %v, reference error %v", expr, gotErr, wantErr)
		return
	}
	if gotErr == nil && !sameValue(got, want) {
		t.Errorf("%q from %s:\n  got       %s\n  reference %s", expr, ctx.Node.Path(), describe(got), describe(want))
	}
}

// diffCatalog is built to hit every branch of the step code: items with
// and without attributes, the same attribute names repeated across
// siblings, text and elements mixed under one parent, comments, and
// enough depth for the ancestor and descendant axes to overlap when
// they start from several nodes.
func diffCatalog() *xmltree.Node {
	root := xmltree.NewElement("catalog")
	root.SetAttr("rev", "7")
	for i := 0; i < 24; i++ {
		item := xmltree.NewElement("item")
		if i%3 != 0 {
			item.SetAttr("id", fmt.Sprint(i))
		}
		if i%2 == 0 {
			item.SetAttr("cat", []string{"light", "garden", "office"}[i%3])
		}
		if i%5 == 0 {
			item.SetAttr("id2", fmt.Sprint(i%4)) // values repeat across siblings
		}
		name := xmltree.NewElement("name")
		name.AppendChild(xmltree.NewText(fmt.Sprintf("thing-%d", i)))
		item.AppendChild(name)
		if i%4 == 1 {
			item.AppendChild(xmltree.NewText(" loose text "))
		}
		price := xmltree.NewElement("price")
		price.AppendChild(xmltree.NewText(fmt.Sprint((i * 37) % 100)))
		if i%6 == 0 {
			price.SetAttr("cur", "eur")
		}
		item.AppendChild(price)
		if i%7 == 0 {
			item.AppendChild(xmltree.NewComment("checked"))
		}
		if i%4 == 2 {
			// <tags><tag>a</tag>mixed<tag><item>…</item></tag></tags>: a
			// nested item, so //item starts from nodes inside one another.
			tags := xmltree.NewElement("tags")
			t1 := xmltree.NewElement("tag")
			t1.AppendChild(xmltree.NewText("a"))
			t2 := xmltree.NewElement("tag")
			inner := xmltree.NewElement("item")
			inner.SetAttr("id", fmt.Sprintf("n%d", i))
			innerName := xmltree.NewElement("name")
			innerName.AppendChild(xmltree.NewText("nested"))
			innerName.AppendChild(xmltree.NewText("-split"))
			inner.AppendChild(innerName)
			t2.AppendChild(inner)
			tags.AppendChild(t1)
			tags.AppendChild(xmltree.NewText("mixed"))
			tags.AppendChild(t2)
			item.AppendChild(tags)
		}
		root.AppendChild(item)
	}
	note := xmltree.NewElement("note")
	note.AppendChild(xmltree.NewText("seasonal"))
	root.AppendChild(note)
	return root
}

var diffPaths = []string{
	// child, attribute and self: the duplicate-free fast path
	"item", "item/name", "item/price/text()", "*", "node()", "item/node()", "item/comment()",
	"item/@id", "item/@*", "item/@node()", "item/@missing", "@rev", "item/price/@cur",
	"item/@id2", "item[@id2 = item/@id2]/name", "//item/@id", "//@*",
	"item/self::item", "item/self::*", "item/name/self::price", ".", "./item/.",
	// the parent of an attribute, and other axes from attribute nodes
	"item/@id/..", "item/@id/../name", "item/@cat/../@id", "item/@id/self::node()", "item/@id/self::*",
	"item/@id/ancestor::*", "item/@id/ancestor-or-self::node()", "item/@id/following-sibling::*",
	"item/@id/@id", "item/@id/node()", "item/@id/descendant-or-self::node()",
	// positional predicates count per input node
	"item[1]", "item[last()]", "item[position() < 4]/name", "item/name[1]", "item/*[2]", "item/node()[2]",
	"item[3]/@*[2]", "item/@*[1]", "item[position() = last() - 1]", "item[2][1]", "item[name][2]",
	"item/tags/tag[2]/item", "//item[1]", "//tag[last()]", "item[@id][position() mod 2 = 0]/@id",
	// axes on which several input nodes reach the same node
	"//item", "//item//name", "//name/ancestor::*", "//name/ancestor-or-self::*", "//item/ancestor::item",
	"item/following-sibling::item", "item/following-sibling::*[1]", "item/preceding-sibling::item[1]",
	"item/preceding-sibling::*", "//tag/following-sibling::node()", "//tag/preceding-sibling::node()",
	"item/..", "item/name/..", "//name/../..", "item/descendant::*", "item/descendant-or-self::item",
	"//item/descendant::text()", "item/tags/descendant-or-self::node()", "//*/parent::item",
	"/", "/catalog/item[2]", "/*", "/catalog/item/name/ancestor::catalog", "//item/name | //note | item",
	// comparisons: node-set against string, number, boolean and node-set
	"item[@id = '4']", "item[@id != '4']/@id", "item[price < 50]/name", "item[price >= 50][@cat]",
	"item[price = 37]", "item[name = 'thing-3']/price", "item[@cat = 'light' or @cat = 'office']",
	"item[@id = ../item/@id2]", "item[price > ../item[1]/price]", "item[name = //tag/item/name]",
	"item[@id = true()]", "item[@missing = false()]", "item[not(@id)]", "item['4' = @id]", "item[50 > price]",
	"item[. = 'thing-037']", "item[text() = ' loose text ']", "//item[name = 'nested-split']/@id",
	"item/price < 5", "item/price > 95", "item/@id = item/@id2", "item/@id != item/@id2", "note = 'seasonal'",
	"1 < 2", "'a' = 'a'", "'10' > 9", "true() = 'x'", "false() != 0",
	// comparisons that take their operand's last step themselves: every
	// axis, from one start node and from many, hits and misses
	"item/ancestor::* = 'x'", "//name/ancestor::item/@id = 'n2'", "//name/ancestor::item/@id = 'n3'",
	"//item/descendant::text() = 'nested'", "//item/descendant-or-self::item/name = 'nested-split'",
	"item/following-sibling::item/@id = '23'", "item/following-sibling::item/@id = '0'",
	"item/preceding-sibling::item/price < 1", "item/preceding-sibling::item/price < 0",
	"//tag/.. = 'amixednested-split'", "//tag/parent::tags != 'amixednested-split'", "item/@* = 'eur'",
	"item/price/@* = 'eur'", "item/@node() != '4'", "item/self::item = ''", "item/name/self::price = ''",
	"//item/name/text() = '-split'", "item/comment() = 'checked'", "item/@id/.. = item/@id2/..",
	"item/@id/@id = '4'", "item/@id/node() = '4'", "item/name/@x = ''", "item/missing != ''", "item[1]/missing = ''",
	"/ = /", "/catalog/@rev = 7", "//@rev >= 7", ". = .", ".. = 'x'", "text() = ' loose text '", "@id = @id",
	"item/ancestor-or-self::item/@cat = 'garden'", "item[tags/tag/item/@id = 'n2']/@id", "item[../@rev = 7][1]/@id",
	"item/@id = true()", "false() = item/@missing", "item/name > item/price", "$unbound/@id = 1", "1 = $unbound/name",
	// functions over paths
	"count(//item)", "count(item/@id)", "sum(item/price)", "string(item[2]/@id)", "name(item/@cat)",
	"count(item/following-sibling::item)", "concat(item[1]/name, '-', item[last()]/@id)",
	"string-length(//tag[2])", "normalize-space(item[2])", "count(//name/ancestor::*)",
	// failures
	"$unbound/item", "item[$unbound]", "count(1)", "1 | item",
}

func TestStepsMatchReference(t *testing.T) {
	root := diffCatalog()
	starts := []*xmltree.Node{
		root,
		root.Children[2], // an item with tags
		root.Children[2].FirstChildElement("tags").Children[2], // the tag holding a nested item
		root.Children[5].Children[0],                           // a name
		root.Children[1].Children[1],                           // loose text
	}
	for _, start := range starts {
		for _, p := range diffPaths {
			checkReference(t, p, &Context{Node: start})
		}
	}
}

// TestStepsFromVariableNodeSets starts paths from bound node-sets, the
// form every xquery path takes ($i/@id, $doc/item): many start nodes at
// once, including nested ones.
func TestStepsFromVariableNodeSets(t *testing.T) {
	root := diffCatalog()
	items := MustCompile("//item")
	all, err := items.Select(root)
	if err != nil {
		t.Fatal(err)
	}
	vars := noVars.
		Bind("all", NodeSet(all)).
		Bind("one", NodeSet(all[3:4])).
		Bind("none", NodeSet{}).
		Bind("k", String("4")).
		Bind("limit", Number(50))
	for _, p := range []string{
		"$all/@id", "$all/name", "$all/..", "$all/ancestor::*", "$all/descendant::name", "$all//item",
		"$all/following-sibling::item[1]", "$all/preceding-sibling::*[2]", "$all/self::item[@cat]",
		"$one/@id", "$one/@id = $k", "$one/name", "$one/..", "$one/ancestor-or-self::*", "$one/node()[2]",
		"$none/@id", "$none/..", "$none = $k", "$all/@id = $k", "$all/price < $limit", "$all/self::*[price < $limit]/name",
		"$all/@id/..", "$all/tags/tag/item/ancestor::item", "$all | $one", "count($all/descendant-or-self::node())",
		"$k/item", "$limit/..",
		"$all/ancestor::* = $k", "$all/@id != $k", "$k = $all/@id", "$all/descendant::name = $one/name",
		"$one/.. = $all/..", "$all/following-sibling::item/@id = 23", "$none/@id = $none/@id", "$none/.. != $all",
		"$all/self::item[@cat]/@cat = 'office'", "$one/preceding-sibling::*/name = 'thing-0'",
		"$k/@id = 1", "1 < $limit/name", "$all/@id = $nope",
	} {
		checkReference(t, p, &Context{Node: root, Vars: vars})
	}
}

func TestCompareMatchesReference(t *testing.T) {
	root := diffCatalog()
	sel := func(p string) NodeSet {
		ns, err := MustCompile(p).Select(root)
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	values := []Value{
		String(""), String("4"), String("thing-3"), String(" 37 "), String("x"),
		Number(0), Number(4), Number(37), Number(math.NaN()), Number(math.Inf(1)),
		Boolean(true), Boolean(false),
		NodeSet{}, sel("item/@id"), sel("item/price"), sel("item[4]/name"), sel("item/name"), sel("note"),
	}
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">=", "~"} {
		for _, a := range values {
			for _, b := range values {
				got := compare(op, operandOf(a), operandOf(b))
				if want := refCompareValues(op, a, b); got != want {
					t.Errorf("%s %s %s = %v, reference %v", describe(a), op, describe(b), got, want)
				}
			}
		}
	}
}

func TestScope(t *testing.T) {
	var empty *Scope
	if _, ok := empty.Lookup("x"); ok {
		t.Error("the nil scope binds x")
	}
	outer := empty.Bind("x", Number(1)).Bind("y", Number(2))
	inner := outer.Bind("x", Number(3))
	for _, c := range []struct {
		s    *Scope
		name string
		want Value
	}{
		{outer, "x", Number(1)}, {outer, "y", Number(2)},
		{inner, "x", Number(3)}, {inner, "y", Number(2)},
	} {
		if got, ok := c.s.Lookup(c.name); !ok || got != c.want {
			t.Errorf("Lookup(%s) = %v, %v; want %v", c.name, got, ok, c.want)
		}
	}
	if _, ok := inner.Lookup("z"); ok {
		t.Error("Lookup(z) found a binding nobody made")
	}

	// A sibling extension of the same tail sees neither the other's
	// binding nor its shadowing.
	sibling := outer.Bind("z", Number(9))
	if got, _ := sibling.Lookup("x"); got != Number(1) {
		t.Errorf("sibling scope sees x = %v, want the shared tail's 1", got)
	}
	if _, ok := inner.Lookup("z"); ok {
		t.Error("a binding leaked from one extension of a tail into another")
	}

	long := empty.Bind("first", String("deep"))
	for i := 0; i < 10000; i++ {
		long = long.Bind(fmt.Sprintf("v%d", i), Number(i))
	}
	if got, ok := long.Lookup("first"); !ok || got != String("deep") {
		t.Errorf("Lookup through a 10,000-link chain = %v, %v", got, ok)
	}
	if got, _ := long.Lookup("v9999"); got != Number(9999) {
		t.Errorf("innermost binding = %v", got)
	}
}

func TestUnboundVariableError(t *testing.T) {
	const want = `xpath: eval "$nope": unbound variable`
	for _, vars := range []*Scope{nil, noVars.Bind("other", Number(1))} {
		_, err := MustCompile("$nope/item").Eval(&Context{Node: diffCatalog(), Vars: vars})
		if err == nil || err.Error() != want {
			t.Errorf("error = %v, want %s", err, want)
		}
	}
}
