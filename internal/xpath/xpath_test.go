package xpath

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"axml/internal/xmltree"
)

const catalogXML = `<catalog>
  <item id="1" cat="furniture"><name>chair</name><price>30</price></item>
  <item id="2" cat="furniture"><name>desk</name><price>120</price></item>
  <item id="3" cat="light"><name>lamp</name><price>15</price></item>
  <note>seasonal sale</note>
</catalog>`

func doc(t *testing.T) *xmltree.Node {
	t.Helper()
	n, err := xmltree.Parse(catalogXML)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return n
}

// noVars is the empty scope tests extend with Bind.
var noVars *Scope

// The four helpers below also run every expression they are given
// through the reference evaluator (reference_test.go), so each
// expression in this file doubles as a differential case.

func sel(t *testing.T, n *xmltree.Node, expr string) []*xmltree.Node {
	t.Helper()
	checkReference(t, expr, &Context{Node: n})
	c, err := Compile(expr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	ns, err := c.Select(n)
	if err != nil {
		t.Fatalf("Select(%q): %v", expr, err)
	}
	return ns
}

// selIn is sel from n, a node inside the document rooted at root: the
// document is named in Context.Trees, so steps from n can go up.
func selIn(t *testing.T, root, n *xmltree.Node, expr string) []*xmltree.Node {
	t.Helper()
	ctx := &Context{Node: n, Trees: NewTrees(root)}
	checkReference(t, expr, ctx)
	v, err := MustCompile(expr).Eval(ctx)
	if err != nil {
		t.Fatalf("Eval(%q): %v", expr, err)
	}
	return v.(NodeSet)
}

// evalValue compiles and evaluates expr from n, checked against the
// reference evaluator.
func evalValue(t *testing.T, n *xmltree.Node, expr string) Value {
	t.Helper()
	checkReference(t, expr, &Context{Node: n})
	c, err := Compile(expr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	v, err := c.Eval(&Context{Node: n})
	if err != nil {
		t.Fatalf("Eval(%q): %v", expr, err)
	}
	return v
}

func evalStr(t *testing.T, n *xmltree.Node, expr string) string {
	t.Helper()
	return evalValue(t, n, expr).Str()
}

func evalNum(t *testing.T, n *xmltree.Node, expr string) float64 {
	t.Helper()
	return evalValue(t, n, expr).Number()
}

func evalBool(t *testing.T, n *xmltree.Node, expr string) bool {
	t.Helper()
	return evalValue(t, n, expr).Bool()
}

func TestChildSteps(t *testing.T) {
	d := doc(t)
	if got := len(sel(t, d, "item")); got != 3 {
		t.Errorf("item count = %d, want 3", got)
	}
	if got := len(sel(t, d, "item/name")); got != 3 {
		t.Errorf("item/name count = %d", got)
	}
	if got := len(sel(t, d, "missing")); got != 0 {
		t.Errorf("missing = %d", got)
	}
}

func TestAbsoluteAndDescendant(t *testing.T) {
	d := doc(t)
	name := d.FindAll("name")[0]
	// absolute path from a deep context node
	if got := len(selIn(t, d, name, "/catalog/item")); got != 3 {
		t.Errorf("/catalog/item = %d", got)
	}
	if got := len(sel(t, d, "//name")); got != 3 {
		t.Errorf("//name = %d", got)
	}
	if got := len(sel(t, d, "//*")); got != 11 {
		t.Errorf("//* = %d, want 11", got)
	}
	if got := len(sel(t, d, "descendant::name")); got != 3 {
		t.Errorf("descendant::name = %d", got)
	}
}

func TestWildcardAndText(t *testing.T) {
	d := doc(t)
	if got := len(sel(t, d, "*")); got != 4 {
		t.Errorf("* = %d, want 4", got)
	}
	texts := sel(t, d, "note/text()")
	if len(texts) != 1 || texts[0].Text != "seasonal sale" {
		t.Errorf("note/text() = %v", texts)
	}
}

func TestAttributes(t *testing.T) {
	d := doc(t)
	attrs := sel(t, d, "item/@id")
	if len(attrs) != 3 {
		t.Fatalf("item/@id = %d", len(attrs))
	}
	if attrs[0].Kind != xmltree.AttrNode || attrs[0].Text != "1" {
		t.Errorf("first @id = %+v", attrs[0])
	}
	if got := len(sel(t, d, "item/@*")); got != 6 {
		t.Errorf("item/@* = %d, want 6", got)
	}
	if got := evalStr(t, d, "string(item[2]/@cat)"); got != "furniture" {
		t.Errorf("item[2]/@cat = %q", got)
	}
}

func TestPredicates(t *testing.T) {
	d := doc(t)
	cheap := sel(t, d, "item[price < 100]")
	if len(cheap) != 2 {
		t.Errorf("cheap items = %d, want 2", len(cheap))
	}
	byAttr := sel(t, d, `item[@cat="light"]`)
	if len(byAttr) != 1 || byAttr[0].FirstChildElement("name").TextContent() != "lamp" {
		t.Errorf("light items wrong")
	}
	pos := sel(t, d, "item[2]")
	if len(pos) != 1 || pos[0].FirstChildElement("name").TextContent() != "desk" {
		t.Errorf("item[2] wrong")
	}
	lastSel := sel(t, d, "item[last()]")
	if len(lastSel) != 1 || lastSel[0].FirstChildElement("name").TextContent() != "lamp" {
		t.Errorf("item[last()] wrong")
	}
	if got := len(sel(t, d, "item[position() > 1]")); got != 2 {
		t.Errorf("position()>1 = %d", got)
	}
	chained := sel(t, d, `item[@cat="furniture"][2]`)
	if len(chained) != 1 || chained[0].FirstChildElement("name").TextContent() != "desk" {
		t.Errorf("chained predicate wrong")
	}
	existence := sel(t, d, "item[name]")
	if len(existence) != 3 {
		t.Errorf("item[name] = %d", len(existence))
	}
}

func TestAxes(t *testing.T) {
	d := doc(t)
	secondItem := sel(t, d, "item[2]")[0]
	if got := len(selIn(t, d, secondItem, "parent::catalog")); got != 1 {
		t.Errorf("parent::catalog = %d", got)
	}
	if got := len(selIn(t, d, secondItem, "..")); got != 1 {
		t.Errorf(".. = %d", got)
	}
	if got := len(selIn(t, d, secondItem, "following-sibling::item")); got != 1 {
		t.Errorf("following-sibling::item = %d", got)
	}
	if got := len(selIn(t, d, secondItem, "preceding-sibling::item")); got != 1 {
		t.Errorf("preceding-sibling::item = %d", got)
	}
	name := secondItem.FirstChildElement("name")
	if got := len(selIn(t, d, name, "ancestor::*")); got != 2 {
		t.Errorf("ancestor::* = %d", got)
	}
	if got := len(selIn(t, d, name, "ancestor-or-self::*")); got != 3 {
		t.Errorf("ancestor-or-self::* = %d", got)
	}
	if got := len(selIn(t, d, name, "self::name")); got != 1 {
		t.Errorf("self::name = %d", got)
	}
	if got := len(selIn(t, d, name, "self::other")); got != 0 {
		t.Errorf("self::other = %d", got)
	}
}

func TestUnion(t *testing.T) {
	d := doc(t)
	ns := sel(t, d, "item/name | item/price | note")
	if len(ns) != 7 {
		t.Errorf("union = %d, want 7", len(ns))
	}
	// Duplicates are removed.
	dup := sel(t, d, "item | item")
	if len(dup) != 3 {
		t.Errorf("item|item = %d, want 3", len(dup))
	}
}

func TestArithmeticAndComparison(t *testing.T) {
	d := doc(t)
	if got := evalNum(t, d, "1 + 2 * 3"); got != 7 {
		t.Errorf("1+2*3 = %v", got)
	}
	if got := evalNum(t, d, "(1 + 2) * 3"); got != 9 {
		t.Errorf("(1+2)*3 = %v", got)
	}
	if got := evalNum(t, d, "10 div 4"); got != 2.5 {
		t.Errorf("10 div 4 = %v", got)
	}
	if got := evalNum(t, d, "10 mod 3"); got != 1 {
		t.Errorf("10 mod 3 = %v", got)
	}
	if got := evalNum(t, d, "-item[1]/price"); got != -30 {
		t.Errorf("-price = %v", got)
	}
	if !evalBool(t, d, "2 < 3 and 3 <= 3") {
		t.Error("2<3 and 3<=3 should be true")
	}
	if !evalBool(t, d, "1 > 2 or 5 >= 5") {
		t.Error("or should be true")
	}
	if !evalBool(t, d, `"abc" = "abc"`) {
		t.Error("string equality failed")
	}
	if !evalBool(t, d, `"abc" != "abd"`) {
		t.Error("string inequality failed")
	}
}

func TestExistentialNodeSetComparison(t *testing.T) {
	d := doc(t)
	// Some price < 20 (lamp)?
	if !evalBool(t, d, "item/price < 20") {
		t.Error("existential < failed")
	}
	// No price > 1000.
	if evalBool(t, d, "item/price > 1000") {
		t.Error("existential > should be false")
	}
	// node-set vs node-set: any name equals any name of other set
	if !evalBool(t, d, `item[1]/name = //name`) {
		t.Error("ns=ns comparison failed")
	}
}

func TestCoreFunctions(t *testing.T) {
	d := doc(t)
	if got := evalNum(t, d, "count(//item)"); got != 3 {
		t.Errorf("count = %v", got)
	}
	if got := evalNum(t, d, "sum(item/price)"); got != 165 {
		t.Errorf("sum = %v", got)
	}
	if got := evalStr(t, d, "name(item[1])"); got != "item" {
		t.Errorf("name() = %q", got)
	}
	if got := evalStr(t, d, `concat("a", "-", "b")`); got != "a-b" {
		t.Errorf("concat = %q", got)
	}
	if !evalBool(t, d, `contains(note, "sale")`) {
		t.Error("contains failed")
	}
	if !evalBool(t, d, `starts-with(note, "seasonal")`) {
		t.Error("starts-with failed")
	}
	if got := evalStr(t, d, `substring("hello", 2, 3)`); got != "ell" {
		t.Errorf("substring = %q", got)
	}
	if got := evalStr(t, d, `substring("hello", 2)`); got != "ello" {
		t.Errorf("substring/2 = %q", got)
	}
	if got := evalStr(t, d, `substring-before("a=b", "=")`); got != "a" {
		t.Errorf("substring-before = %q", got)
	}
	if got := evalStr(t, d, `substring-after("a=b", "=")`); got != "b" {
		t.Errorf("substring-after = %q", got)
	}
	if got := evalNum(t, d, `string-length("héllo")`); got != 5 {
		t.Errorf("string-length = %v", got)
	}
	if got := evalStr(t, d, `normalize-space("  a  b ")`); got != "a b" {
		t.Errorf("normalize-space = %q", got)
	}
	if got := evalNum(t, d, "floor(2.7)"); got != 2 {
		t.Errorf("floor = %v", got)
	}
	if got := evalNum(t, d, "ceiling(2.1)"); got != 3 {
		t.Errorf("ceiling = %v", got)
	}
	if got := evalNum(t, d, "round(2.5)"); got != 3 {
		t.Errorf("round = %v", got)
	}
	if !evalBool(t, d, "not(false())") {
		t.Error("not/false failed")
	}
	if !evalBool(t, d, "boolean(1)") {
		t.Error("boolean(1) failed")
	}
	if got := evalNum(t, d, `number("42")`); got != 42 {
		t.Errorf("number = %v", got)
	}
	if got := evalStr(t, d, "string(12)"); got != "12" {
		t.Errorf("string(12) = %q", got)
	}
	if got := evalStr(t, d, "local-name(item[1])"); got != "item" {
		t.Errorf("local-name = %q", got)
	}
}

func TestVariables(t *testing.T) {
	d := doc(t)
	c := MustCompile("$x/name")
	items := sel(t, d, "item")
	v, err := c.Eval(&Context{Node: d, Vars: noVars.Bind("x", NodeSet(items))})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	ns := v.(NodeSet)
	if len(ns) != 3 {
		t.Errorf("$x/name = %d", len(ns))
	}
	// Scalar variable in arithmetic.
	c2 := MustCompile("$n + 1")
	v2, err := c2.Eval(&Context{Node: d, Vars: noVars.Bind("n", Number(41))})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if v2.Number() != 42 {
		t.Errorf("$n+1 = %v", v2)
	}
	// Unbound variable errors.
	if _, err := MustCompile("$ghost").Eval(&Context{Node: d}); err == nil {
		t.Error("unbound variable should error")
	}
}

func TestVariableInPredicate(t *testing.T) {
	d := doc(t)
	c := MustCompile("item[price < $limit]/name")
	v, err := c.Eval(&Context{Node: d, Vars: noVars.Bind("limit", Number(100))})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	ns := v.(NodeSet)
	if len(ns) != 2 {
		t.Errorf("parameterized predicate = %d nodes", len(ns))
	}
}

// compileErrorSources are texts Compile refuses.
var compileErrorSources = []string{
	"", "item[", "item]", "//", "@", "item/", "1 +", "item[@]",
	"$", "unknown::a", "f(", `"unterminated`, "a b", "!", "a:::b",
	"text(x)",
}

func TestCompileErrors(t *testing.T) {
	for _, src := range compileErrorSources {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	d := doc(t)
	// Union of non-node-sets.
	if _, err := MustCompile("1 | 2").Eval(&Context{Node: d}); err == nil {
		t.Error("union of numbers should error")
	}
	// count() of a number.
	if _, err := MustCompile("count(1)").Eval(&Context{Node: d}); err == nil {
		t.Error("count(1) should error")
	}
	// Path from non-node-set.
	if _, err := MustCompile("count(1 div 0)/a").Eval(&Context{Node: d}); err == nil {
		t.Error("path from number should error")
	}
	// Unknown function.
	if _, err := MustCompile("nope()").Eval(&Context{Node: d}); err == nil {
		t.Error("unknown function should error")
	}
	// Wrong arity (checked at eval time).
	if _, err := MustCompile("position(1)").Eval(&Context{Node: d}); err == nil {
		t.Error("position(1) should error at eval")
	}
}

func TestNumberFormatting(t *testing.T) {
	cases := map[string]string{
		"1 div 0":    "Infinity",
		"-1 div 0":   "-Infinity",
		"0 div 0":    "NaN",
		"2 + 2":      "4",
		"1 div 4":    "0.25",
		"-(3)":       "-3",
		"round(1.5)": "2",
	}
	d := doc(t)
	for expr, want := range cases {
		if got := evalStr(t, d, "string("+expr+")"); got != want {
			t.Errorf("string(%s) = %q, want %q", expr, got, want)
		}
	}
	if !math.IsNaN(evalNum(t, d, `number("abc")`)) {
		t.Error(`number("abc") should be NaN`)
	}
}

// TestNumberGrammar holds number() to XPath 1.0 §4.4 and string() to
// §4.2: a string is a number only as optional whitespace, an optional
// minus, Digits ('.' Digits?)? or '.' Digits, optional whitespace; a
// number prints as a plain decimal, so it reads back as itself.
func TestNumberGrammar(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		in   string
		want float64
	}{
		{"42", 42}, {" 42 ", 42}, {"\t-3.5\r\n", -3.5}, {"-.5", -0.5}, {"5.", 5}, {".5", 0.5},
		{"007", 7}, {"-0", 0}, {"1000000000000000000000", 1e21}, {"0.0000001", 1e-7},
		{"1e3", nan}, {"1E3", nan}, {"+5", nan}, {"Inf", nan}, {"infinity", nan}, {"-Infinity", nan},
		{"NaN", nan}, {"0x1p4", nan}, {"0x10", nan}, {"1_0", nan}, {"1_000", nan}, {"", nan}, {" ", nan},
		{"-", nan}, {".", nan}, {"-.", nan}, {"1.2.3", nan}, {"--1", nan}, {"1-", nan}, {"- 1", nan},
		{"1 2", nan}, {" 1", nan}, {"١", nan},
	} {
		got := stringToNumber(c.in)
		if got != c.want && !(math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("number(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, c := range []struct {
		in   float64
		want string
	}{
		{1e21, "1000000000000000000000"}, {1e15, "1000000000000000"}, {-1e15, "-1000000000000000"},
		{123456789012345678, "123456789012345680"}, {1e-7, "0.0000001"}, {0.1, "0.1"},
		{1.0 / 3, "0.3333333333333333"}, {-2.5, "-2.5"}, {math.Copysign(0, -1), "0"},
		{math.MaxFloat64, "1" + strings.Repeat("7976931348623157", 1) + strings.Repeat("0", 292)},
		{5e-324, "0." + strings.Repeat("0", 323) + "5"},
	} {
		got := formatNumber(c.in)
		if got != c.want {
			t.Errorf("string(%v) = %q, want %q", c.in, got, c.want)
		}
		if back := stringToNumber(got); back != c.in {
			t.Errorf("number(string(%v)) = %v", c.in, back)
		}
	}

	d := doc(t)
	for expr, want := range map[string]string{
		"string(1000000000 * 1000000000 * 1000)": "1000000000000000000000",
		"string(1 div 10000000)":                 "0.0000001",
		"number(string(1 div 3)) = 1 div 3":      "true",
		"number(string(1000000000 * 1000000000 * 1000 + 1)) = 1000000000 * 1000000000 * 1000": "true",
		"number('1e3')":      "NaN",
		"number(' -12.50 ')": "-12.5",
	} {
		if got := evalStr(t, d, "string("+expr+")"); got != want {
			t.Errorf("string(%s) = %q, want %q", expr, got, want)
		}
	}

	// A price that is not a number fails every comparison and poisons
	// sum(), by path and through a bound item alike.
	prices := xmltree.MustParse(`<catalog>
	  <item><price>1_000</price></item><item><price>1e3</price></item>
	  <item><price>+900</price></item><item><price>Infinity</price></item>
	  <item><price>750</price></item>
	</catalog>`)
	if got := evalNum(t, prices, "count(item[price > 500])"); got != 1 {
		t.Errorf("count(item[price > 500]) = %v, want 1 (the 750 item)", got)
	}
	if got := evalNum(t, prices, "count(item[price = price + 0])"); got != 1 {
		t.Errorf("count(item[price = price + 0]) = %v, want 1", got)
	}
	if got := evalNum(t, prices, "sum(item/price)"); !math.IsNaN(got) {
		t.Errorf("sum(item/price) = %v, want NaN", got)
	}
	if got := evalNum(t, prices, "sum(item[5]/price)"); got != 750 {
		t.Errorf("sum(item[5]/price) = %v, want 750", got)
	}
	for i, item := range sel(t, prices, "item") {
		want := i == 4
		ctx := &Context{Node: prices, Vars: noVars.Bind("i", NodeSet{item})}
		checkReference(t, "$i/price > 500", ctx)
		v, err := MustCompile("$i/price > 500").Eval(ctx)
		if err != nil || v.Bool() != want {
			t.Errorf("item %d: $i/price > 500 = %v, %v; want %v", i+1, v, err, want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	// Compiled expressions render back to parseable XPath.
	exprs := []string{
		"item[price < 100]/name",
		"//name",
		"/catalog/item[2]",
		"count(//item) > 2",
		`concat("a", "b")`,
		"$v/a | $w/b",
		"item[@id = 1]",
		"..",
		".",
		"ancestor::*",
	}
	d := doc(t)
	for _, src := range exprs {
		c := MustCompile(src)
		rendered := c.String()
		c2, err := Compile(rendered)
		if err != nil {
			t.Errorf("re-compile of %q (from %q) failed: %v", rendered, src, err)
			continue
		}
		// Evaluate both against the fixture where possible and compare.
		v1, err1 := c.Eval(&Context{Node: d, Vars: noVars.Bind("v", NodeSet{d}).Bind("w", NodeSet{d})})
		v2, err2 := c2.Eval(&Context{Node: d, Vars: noVars.Bind("v", NodeSet{d}).Bind("w", NodeSet{d})})
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("eval divergence for %q vs %q", src, rendered)
			continue
		}
		if err1 == nil && v1.Str() != v2.Str() {
			t.Errorf("value divergence for %q: %q vs %q", src, v1.Str(), v2.Str())
		}
	}
}

// renderSources are texts whose parentheses the rendering keeps, as
// the text parses to another expression without them: a path that
// starts from a union, a negation or another path, and a union of a
// negation or of a union.
var renderSources = []string{
	`($x/a | $x/b)/c`,
	`count((doc("d")/a | doc("d")/b)/c)`,
	`(-$x)/c`,
	`($x/a)/b`,
	`(/a)/descendant::b`,
	`$a | (-$b)`,
	`$a | ($b | $c)`,
	`(/)/a`,
	`($x/a | $x/b)[1]`,
	`($x/a | $x/b)[1]/c`,
	`((a | b)[2])[1]`,
	`$x[1][$y]`,
}

func TestRenderKeepsParentheses(t *testing.T) {
	for _, src := range renderSources {
		c := MustCompile(src)
		if got := c.String(); got != src {
			t.Errorf("%s renders %s", src, got)
		}
		if again := MustCompile(c.String()); !reflect.DeepEqual(again.Root, c.Root) {
			t.Errorf("%s renders a text that compiles to another expression", src)
		}
	}
}

// TestRenderChainAllocations renders an operator chain of 5,000 terms:
// the text grows in one buffer, so it costs a few allocations, not one
// (or more) per operator.
func TestRenderChainAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	c := MustCompile(strings.Repeat("1 + ", 5000) + "1")
	if got := testing.AllocsPerRun(5, func() { _ = c.String() }); got > 20 {
		t.Errorf("rendering a 5,000-operator chain allocates %.0f times, want at most 20", got)
	}
}

func TestVariablesHelper(t *testing.T) {
	c := MustCompile("$a/x[$b = 1] | f($c, $a)")
	vars := Variables(c.Root)
	want := []string{"a", "b", "c"}
	if len(vars) != len(want) {
		t.Fatalf("Variables = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Errorf("Variables[%d] = %q, want %q", i, vars[i], want[i])
		}
	}
}

func TestDeepNesting(t *testing.T) {
	// Build a deep chain a/a/a/... and query with //.
	depth := 200
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("<a>")
	}
	sb.WriteString("<leaf/>")
	for i := 0; i < depth; i++ {
		sb.WriteString("</a>")
	}
	n, err := xmltree.Parse(sb.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := len(sel(t, n, "//leaf")); got != 1 {
		t.Errorf("//leaf = %d", got)
	}
	if got := len(sel(t, n, "//a")); got != depth {
		t.Errorf("//a = %d, want %d", got, depth)
	}
}

func TestPositionWithinPredicateOfSecondStep(t *testing.T) {
	d := doc(t)
	// First price of each item: 3 nodes, all position 1 within their step.
	ns := sel(t, d, "item/price[1]")
	if len(ns) != 3 {
		t.Errorf("item/price[1] = %d, want 3 (per-input-node positions)", len(ns))
	}
}
