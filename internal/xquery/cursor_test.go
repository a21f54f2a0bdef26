package xquery

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"axml/internal/xmltree"
)

func cursorDoc(items int) *xmltree.Node {
	root := xmltree.E("catalog")
	for i := 0; i < items; i++ {
		root.AppendChild(xmltree.MustParse(fmt.Sprintf(
			`<item><name>n-%02d</name><price>%d</price></item>`, i, (i*37)%100)))
	}
	return root
}

func serializeForest(forest []*xmltree.Node) string {
	parts := make([]string, len(forest))
	for i, n := range forest {
		parts[i] = xmltree.Serialize(n)
	}
	return strings.Join(parts, "\n")
}

// cursorQueries cover the language's expression forms over cursorDoc.
var cursorQueries = []string{
	`doc("catalog")/item/name`,
	`doc("catalog")/item[price < 40]`,
	`for $i in doc("catalog")/item return $i/name`,
	`for $i in doc("catalog")/item where $i/price < 50 return <hit>{$i/name}{$i/price}</hit>`,
	`for $i in doc("catalog")/item let $p := $i/price where $p > 20 return <r p="{$p}">{$i/name}</r>`,
	`for $i in doc("catalog")/item where $i/price < 60 order by $i/price return $i/name`,
	`for $i in doc("catalog")/item order by $i/name descending return <n>{$i/name}</n>`,
	`for $i in doc("catalog")/item where $i/price > 90 return <pair>{$i/name, $i/price}</pair>`,
	`<all>{for $i in doc("catalog")/item where $i/price < 10 return $i}</all>`,
	`for $i in doc("catalog")/item where $i/price < 30
	 return <o>{for $j in doc("catalog")/item where $j/price = $i/price return $j/name}</o>`,
	`count(doc("catalog")/item)`,
	// Fails after a row over xquery_test.go's catalog: only the second
	// item's price reaches the unresolvable document.
	`for $i in doc("catalog")/item
	 return <r>{$i/name}{for $p in $i/price[. > 100] return doc("ghost")/x}</r>`,
}

// checkAgainstReference holds the pull evaluator to the reference eager
// evaluator on one query: the cursor's rows and Eval's forest must be
// the reference's forest, tree for tree and in order; where the
// reference fails, the cursor must fail too (after whatever rows
// precede the failure) and Eval must fail without returning a row. It
// reports whether the evaluation succeeded.
func checkAgainstReference(t *testing.T, q *Query, env *Env, args ...[]*xmltree.Node) bool {
	t.Helper()
	want, refErr := refEval(q, env, args...)
	got, err := q.Eval(env, args...)
	if (err != nil) != (refErr != nil) {
		t.Errorf("query %q: Eval error %v, reference error %v", q, err, refErr)
		return false
	}
	if err != nil && got != nil {
		t.Errorf("query %q: Eval failed (%v) but returned %d rows", q, err, len(got))
	}
	cur, cerr := q.EvalCursor(context.Background(), env, args...)
	if cerr == nil {
		defer cur.Close()
	}
	var rows []*xmltree.Node
	for cerr == nil {
		var n *xmltree.Node
		if n, cerr = cur.Next(); n == nil {
			break
		}
		rows = append(rows, n)
	}
	if (cerr != nil) != (refErr != nil) {
		t.Errorf("query %q: cursor error %v, reference error %v", q, cerr, refErr)
		return false
	}
	if refErr != nil {
		return false
	}
	if g, w := serializeForest(got), serializeForest(want); g != w {
		t.Errorf("query %q:\nEval:      %s\nreference: %s", q, g, w)
	}
	if g, w := serializeForest(rows), serializeForest(want); g != w {
		t.Errorf("query %q:\ncursor:    %s\nreference: %s", q, g, w)
	}
	return true
}

// fuzzCorpus returns the FuzzParse inputs: the seeds in the source and
// the files under testdata.
func fuzzCorpus(t testing.TB) []string {
	t.Helper()
	out := append([]string(nil), fuzzParseSeeds...)
	files, err := filepath.Glob("testdata/fuzz/FuzzParse/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, ok := strings.Cut(string(data), "\nstring(")
		if !ok {
			t.Fatalf("%s: not a one-string fuzz corpus file", f)
		}
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, src)
	}
	return out
}

// TestCursorEagerEquivalence is the differential test of the pull
// evaluator against the reference — every query table of this package
// and every FuzzParse input that parses (xquery_test.go's inline
// queries are held to it by their run helper) — over a strict
// environment (the two documents of xquery_test.go; anything else is an
// error), a lenient one (any name resolves to a 25-item catalog, so the
// fuzz seeds over doc("d") evaluate) and none at all — error cases
// included.
func TestCursorEagerEquivalence(t *testing.T) {
	var sources []string
	sources = append(sources, cursorQueries...)
	sources = append(sources, evalErrorQueries...)
	sources = append(sources, roundTripSources...)
	sources = append(sources, fuzzCorpus(t)...)

	doc := cursorDoc(25)
	envs := []*Env{
		testEnv(t),
		{Resolve: func(string) (*xmltree.Node, error) { return doc, nil }},
		nil,
	}
	argSets := [][]*xmltree.Node{
		{xmltree.E("v", "100")},
		{cursorDoc(12)},
	}
	parsed, evaluated := 0, 0
	for _, src := range sources {
		q, err := Parse(src)
		if err != nil {
			continue
		}
		parsed++
		ok := false
		for _, env := range envs {
			for _, arg := range argSets {
				args := make([][]*xmltree.Node, q.Arity())
				for i := range args {
					args[i] = arg
				}
				if checkAgainstReference(t, q, env, args...) {
					ok = true
				}
				if q.Arity() == 0 {
					break
				}
			}
		}
		if ok {
			evaluated++
		}
	}
	t.Logf("%d sources, %d parse, %d evaluate in some environment", len(sources), parsed, evaluated)
	if evaluated < len(cursorQueries)+len(roundTripSources) {
		t.Errorf("only %d sources evaluated: the environments no longer fit the tables", evaluated)
	}
}

func TestCursorWithParameters(t *testing.T) {
	q, err := Parse(`param $xs; for $x in $xs/item where $x/price < 50 return $x/name`)
	if err != nil {
		t.Fatal(err)
	}
	arg := []*xmltree.Node{cursorDoc(12)}
	if !checkAgainstReference(t, q, nil, arg) {
		t.Error("parameterized query does not evaluate")
	}
	// Arity mismatch: all three refuse.
	if checkAgainstReference(t, q, nil) {
		t.Error("arity mismatch evaluated")
	}
	if _, err := q.EvalCursor(context.Background(), nil); err == nil {
		t.Error("arity mismatch should fail at EvalCursor")
	}
}

// TestCursorLaziness proves rows are produced on demand: the inner
// FLWR's doc reference binds once per outer tuple, so a counting
// resolver observes exactly as many "inner" resolutions as rows
// pulled — not the full result size.
func TestCursorLaziness(t *testing.T) {
	const items = 20
	outer := cursorDoc(items)
	inner := xmltree.MustParse(`<d><x>1</x></d>`)
	counts := map[string]int{}
	env := &Env{Resolve: func(name string) (*xmltree.Node, error) {
		counts[name]++
		switch name {
		case "outer":
			return outer, nil
		case "inner":
			return inner, nil
		}
		return nil, fmt.Errorf("no doc %q", name)
	}}
	q, err := Parse(`for $i in doc("outer")/item return <r>{$i/name}{doc("inner")/x}</r>`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := q.EvalCursor(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	const pulled = 3
	for i := 0; i < pulled; i++ {
		n, err := cur.Next()
		if err != nil || n == nil {
			t.Fatalf("pull %d: %v %v", i, n, err)
		}
	}
	if counts["inner"] != pulled {
		t.Errorf("inner doc resolved %d times after %d pulls (eager would be %d)",
			counts["inner"], pulled, items)
	}
	if counts["outer"] != 1 {
		t.Errorf("outer doc resolved %d times, want 1", counts["outer"])
	}
	// Close abandons the rest: no further resolutions, Next is terminal.
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := cur.Next(); n != nil || err != nil {
		t.Errorf("Next after Close = (%v, %v), want (nil, nil)", n, err)
	}
	if counts["inner"] != pulled {
		t.Errorf("Close still evaluated: inner count %d", counts["inner"])
	}
}

func TestCursorContextCancel(t *testing.T) {
	doc := cursorDoc(30)
	env := &Env{Resolve: func(string) (*xmltree.Node, error) { return doc, nil }}
	q, err := Parse(`for $i in doc("catalog")/item return $i/name`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := q.EvalCursor(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; i < 2; i++ {
		if n, err := cur.Next(); n == nil || err != nil {
			t.Fatalf("pull %d: %v %v", i, n, err)
		}
	}
	cancel()
	_, err = cur.Next()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Next after cancel = %v, want context.Canceled", err)
	}
	// The failure is sticky.
	if _, err2 := cur.Next(); !errors.Is(err2, context.Canceled) {
		t.Errorf("second Next after cancel = %v", err2)
	}
}

// rejectingJoin examines scanItems² candidate tuples and accepts none:
// seconds of scanning between two rows, with no row ever produced.
var rejectingJoin = MustParse(`for $i in doc("c")/item for $j in doc("c")/item
	where $i/@id = "nope" and $j/@id = "nope" return $i`)

// TestCursorCancelInsideScan cancels a scan that never yields: the
// pull in progress must fail with the context's error shortly after
// the cancel, not run the scan to its end and report a clean
// end-of-stream.
func TestCursorCancelInsideScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cur, err := rejectingJoin.EvalCursor(ctx, scanEnv(scanCatalog()))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	canceledAt := make(chan time.Time, 1)
	timer := time.AfterFunc(20*time.Millisecond, func() {
		canceledAt <- time.Now()
		cancel()
	})
	defer timer.Stop()
	n, err := cur.Next()
	late := time.Since(<-canceledAt)
	if n != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Next = (%v, %v), want an error wrapping context.Canceled", n, err)
	}
	var ee *EvalError
	if !errors.As(err, &ee) {
		t.Errorf("cancellation surfaced as %T, want *EvalError", err)
	}
	// Measured: under a millisecond. The bound leaves room for a loaded
	// host and is still well inside the 2 s the scan runs for.
	if late > time.Second {
		t.Errorf("scan stopped %v after the cancel, want it well inside the scan's run time", late)
	}
	if _, err2 := cur.Next(); !errors.Is(err2, context.Canceled) {
		t.Errorf("second Next after cancel = %v", err2)
	}
}

// TestCursorLateError checks stream semantics on dynamic failures:
// rows preceding the failing tuple arrive, then the error surfaces.
// Eval, draining the same cursor, discards them and returns only the
// error.
func TestCursorLateError(t *testing.T) {
	doc := xmltree.MustParse(`<d><item>1</item><item>2</item><item>3</item></d>`)
	pulls := 0
	env := &Env{Resolve: func(name string) (*xmltree.Node, error) {
		switch name {
		case "d":
			return doc, nil
		case "extra":
			pulls++
			if pulls >= 3 {
				return nil, fmt.Errorf("doc store lost %q", name)
			}
			return xmltree.MustParse(`<x/>`), nil
		}
		return nil, fmt.Errorf("no doc %q", name)
	}}
	q, err := Parse(`for $i in doc("d")/item return <r>{doc("extra")}</r>`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := q.EvalCursor(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; i < 2; i++ {
		if n, err := cur.Next(); n == nil || err != nil {
			t.Fatalf("row %d: %v %v", i, n, err)
		}
	}
	if _, err := cur.Next(); err == nil {
		t.Fatal("third row should fail")
	}
}

// collectCursor drains and closes a cursor that opened with err.
func collectCursor(t *testing.T, cur Cursor, err error) []*xmltree.Node {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var rows []*xmltree.Node
	for {
		n, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if n == nil {
			return rows
		}
		rows = append(rows, n)
	}
}

// nodesOf is the set of nodes in the given trees.
func nodesOf(trees ...*xmltree.Node) map[*xmltree.Node]bool {
	set := map[*xmltree.Node]bool{}
	for _, t := range trees {
		t.Walk(func(n *xmltree.Node) bool { set[n] = true; return true })
	}
	return set
}

// TestRowsReferenceOwnedRowsCopy: a streamed path row is the document's
// own node; an owned cursor's rows, Eval's forest and a constructor's
// content share no node with the document, and changing Eval's forest
// leaves the next evaluation's answer as it was.
func TestRowsReferenceOwnedRowsCopy(t *testing.T) {
	root := cursorDoc(10)
	env := &Env{Resolve: func(string) (*xmltree.Node, error) { return root, nil }}
	stored := nodesOf(root)
	ctx := context.Background()

	items := MustParse(`doc("catalog")/item`)
	cur, err := items.EvalCursor(ctx, env)
	for i, n := range collectCursor(t, cur, err) {
		if n != root.Children[i] {
			t.Fatalf("streamed row %d is not the stored item", i)
		}
	}

	for _, src := range cursorQueries {
		q := MustParse(src)
		owned, err := q.OwnedCursor(ctx, env)
		rows := collectCursor(t, owned, err)
		forest, err := q.Eval(env)
		if err != nil {
			t.Fatal(err)
		}
		if serializeForest(rows) != serializeForest(forest) {
			t.Errorf("%s: owned cursor and Eval disagree", src)
		}
		for n := range nodesOf(append(rows, forest...)...) {
			if stored[n] {
				t.Errorf("%s: a kept row shares %s with the document", src, xmltree.Serialize(n))
				break
			}
		}
	}

	before, err := items.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	want := serializeForest(before)
	for _, n := range before {
		n.Children[0].Children[0].Text = "changed"
		n.AppendChild(xmltree.E("extra"))
	}
	again, err := items.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if got := serializeForest(again); got != want {
		t.Errorf("changing Eval's forest changed the document:\n%s", got)
	}
}
