package session

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/view"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// rememberedTexts reports how many statement texts the session
// answers without a parse.
func rememberedTexts(s *Local) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.texts)
}

// TestStatementTextsRunEachTime: only a query's text is remembered. An
// update sent twice changes the store twice, and a declaration sent
// twice runs twice — the second install finds the document there.
func TestStatementTextsRunEachTime(t *testing.T) {
	sys, views := testSystem(t)
	sess := newSession(t, sys, views)
	ctx := context.Background()
	data, _ := sys.Peer("data")
	items := func() int { return len(docRoot(t, data, "catalog").ChildElementsByLabel("item")) }

	const del = `delete doc("catalog")/item[1]`
	for want := 39; want >= 38; want-- {
		if n, err := sess.Exec(ctx, del); err != nil || n != 1 {
			t.Fatalf("delete: %d, %v; want 1 node", n, err)
		}
		if got := items(); got != want {
			t.Errorf("after the delete the catalog holds %d items, want %d", got, want)
		}
	}

	const decl = `declare document "memo" as <memo/>`
	if _, err := sess.Exec(ctx, decl); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, decl); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("the second declaration answered %v, want the install to run and fail", err)
	}
	if n := rememberedTexts(sess); n != 0 {
		t.Errorf("%d statement texts remembered, want 0", n)
	}
	if st := planCache(sess); st.Hits+st.Misses != 0 {
		t.Errorf("statements consulted the plan cache: %+v", st)
	}
}

// TestRememberedTextReplansAfterDefine: a text answered from its plan
// plans again once the view catalog changes, with exactly one
// invalidation, and is answered from the new plan after that.
func TestRememberedTextReplansAfterDefine(t *testing.T) {
	sys, views := testSystem(t)
	sess := newSession(t, sys, views)
	ctx := context.Background()
	run := func() {
		t.Helper()
		rows, err := sess.Query(ctx, selectQ)
		if err != nil {
			t.Fatal(err)
		}
		if forest, err := rows.Collect(); err != nil || len(forest) != 4 {
			t.Fatalf("the query returned %d rows, %v; want 4", len(forest), err)
		}
	}
	run()
	run()
	if st := planCache(sess); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("two runs of one text: %+v, want 1 miss / 1 hit", st)
	}
	if err := views.Define("cheap",
		`for $i in doc("catalog")/item where $i/price < 100 return $i`, "client"); err != nil {
		t.Fatal(err)
	}
	run()
	if st := planCache(sess); st.Invalidations != 1 || st.Misses != 2 || st.Hits != 1 {
		t.Errorf("after Define: %+v, want 1 invalidation, 2 misses, 1 hit", st)
	}
	run()
	if st := planCache(sess); st.Invalidations != 1 || st.Misses != 2 || st.Hits != 2 {
		t.Errorf("the replanned text missed again: %+v", st)
	}
	if n := rememberedTexts(sess); n != 1 {
		t.Errorf("%d texts remembered, want 1", n)
	}
}

// checkTextIndex fails the test unless the session remembers no more
// texts than it caches plans, no more plans than its cap, and each
// remembered text names an entry still cached whose text it is.
func checkTextIndex(t *testing.T, s *Local) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	cached := map[*list.Element]bool{}
	for e := s.order.Front(); e != nil; e = e.Next() {
		cached[e] = true
	}
	if len(s.texts) > len(s.plans) || len(s.plans) > s.planCap {
		t.Errorf("%d texts, %d plans; want texts <= plans <= %d", len(s.texts), len(s.plans), s.planCap)
	}
	for text, e := range s.texts {
		if !cached[e] || e.Value.(*cachedPlan).text != text {
			t.Errorf("text %q names an entry no longer cached", text)
		}
	}
}

// TestTextIndexStaysWithinTheCache: whitespace variants of six shapes
// through a cache of four. Each entry is named by at most one text,
// and every remembered text names an entry still in the cache.
func TestTextIndexStaysWithinTheCache(t *testing.T) {
	sys, views := testSystem(t)
	sess := newSession(t, sys, views)
	sess.planCap = 4
	ctx := context.Background()
	for v := 0; v < 10; v++ {
		for shape := 0; shape < 6; shape++ {
			src := fmt.Sprintf(`for $i in doc("catalog")/item%swhere $i/price < %d return $i/name`,
				strings.Repeat(" ", v+1), 10+shape)
			rows, err := sess.Query(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rows.Collect(); err != nil {
				t.Fatal(err)
			}
			checkTextIndex(t, sess)
		}
	}
	if st := planCache(sess); st.Evictions == 0 {
		t.Errorf("six shapes through four entries evicted nothing: %+v", st)
	}
}

// selectionQueries are the queries of view.TestSelectionDecisions that
// evaluate without a parameter.
var selectionQueries = []string{
	`for $i in doc("catalog")/item where $i/@id = "17" return $i/name`,
	`for $i in doc("catalog")/item where $i/price < 500 return $i`,
	`for $i in doc("catalog")/item where $i/price < 123 return <h7>{$i/name}</h7>`,
	`doc("catalog")/item[@id="17"]/price`,
	`for $i in doc("d")/item where $i/price < 10 and $i/@id = "3" return $i/name`,
	`for $i in doc("d")/item where $i/@id = "3" and $i/price < 10 return $i/name`,
	`for $i in doc("d")/item where $i/price > 2 and ($i/k = "x" and $i/price < 9) return $i`,
	`for $i in doc("d")/item where $i/@id = "1" and doc("o")/k = $i/k return $i`,
	`let $k := "1" for $i in doc("d")/item where $i/@id = "1" return $i`,
	`for $i in doc("d")/item let $n := $i/name where $i/name = "a" return $n`,
	`for $i in doc("d")/item where <x/> return $i`,
	`doc("d")`,
	`for $i in doc("d")/item return $i`,
	`for $i in doc("d")/item where $i/../@v = "1" return $i/name`,
	`for $i in doc("d")/item where $i/../@v = "1" return $i`,
	`for $i in doc("d")/item where $i/price < 5 order by $i/name return $i`,
	`for $i in doc("a")/x for $j in doc("b")/y where $i/k = $j/k and $i/p < 3 return <pair>{$i}{$j}</pair>`,
}

// TestTextHitsAnswerAsParsed: each selection query answers the same
// forest on its first run (parsed), its second (answered from the
// remembered text) and as written (WithNoOptimize), over a catalog at
// another peer that every doc() of the table names.
func TestTextHitsAnswerAsParsed(t *testing.T) {
	sys := core.NewSystem(netsim.New())
	sys.MustAddPeer("client")
	data := sys.MustAddPeer("data")
	t.Cleanup(sys.Close)
	for _, name := range []string{"catalog", "d", "o", "a", "b"} {
		var sb strings.Builder
		sb.WriteString(`<catalog v="1">`)
		for i := 0; i < 20; i++ {
			fmt.Fprintf(&sb, `<item id="%d"><name>%c</name><price>%d</price><k>%c</k></item>`, i, 'a'+i%3, i, 'x'+(i+1)%2)
			fmt.Fprintf(&sb, `<x><k>%c</k><p>%d</p></x><y><k>%c</k></y>`, 'x'+i%2, i%5, 'x'+i%3)
		}
		sb.WriteString(`<k>x</k></catalog>`)
		if err := data.InstallDocument(name, xmltree.MustParse(sb.String())); err != nil {
			t.Fatal(err)
		}
	}
	views := view.NewManager(sys)
	t.Cleanup(views.Close)
	sess := newSession(t, sys, views)
	ctx := context.Background()
	answer := func(src string, opts ...Option) string {
		t.Helper()
		rows, err := sess.Query(ctx, src, opts...)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		forest, err := rows.Collect()
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		var sb strings.Builder
		for _, n := range forest {
			sb.WriteString(xmltree.Serialize(n))
		}
		return sb.String()
	}
	for _, src := range selectionQueries {
		if _, err := xquery.Parse(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		first := answer(src)
		if first == "" {
			t.Errorf("%s: no rows", src)
		}
		if sess.texts[src] == nil {
			t.Errorf("%s: the text was not remembered", src)
		}
		hits := planCache(sess).Hits
		second := answer(src)
		if got := planCache(sess).Hits; got != hits+1 {
			t.Errorf("%s: the second run did not hit the plan cache", src)
		}
		naive := answer(src, WithNoOptimize())
		if second != first || naive != first {
			t.Errorf("%s\n first: %.200s\nsecond: %.200s\n naive: %.200s", src, first, second, naive)
		}
	}
}

// TestTextHitsBesideViewChurnRace: readers repeat three shapes through
// a cache of two, two texts per shape, while another goroutine defines
// and drops a view the shapes can be answered from. Every answer is the
// truth or ErrViewMoved, and each remembered text names an entry still
// cached.
func TestTextHitsBesideViewChurnRace(t *testing.T) {
	sys, views := testSystem(t)
	sess := newSession(t, sys, views)
	sess.planCap = 2
	ctx := context.Background()
	shapes := []string{
		selectQ,
		`for $i in doc("catalog")/item where $i/price < 100 return $i`,
		`for $i in doc("catalog")/item where $i/price > 100 return $i/name`,
	}
	truth := []int{4, 4, 36}
	done := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					if i >= 30 {
						return
					}
				default:
				}
				k := (w + i) % len(shapes)
				src := strings.Replace(shapes[k], " where", strings.Repeat(" ", 1+w%2)+"where", 1)
				rows, err := sess.Query(ctx, src)
				var forest []*xmltree.Node
				if err == nil {
					forest, err = rows.Collect()
				}
				switch {
				case errors.Is(err, ErrViewMoved):
				case err != nil:
					errCh <- fmt.Errorf("%s: %w", src, err)
					return
				case len(forest) != truth[k]:
					errCh <- fmt.Errorf("%s: %d rows, want %d", src, len(forest), truth[k])
					return
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		if err := views.Define("cheap", shapes[1], "client"); err != nil {
			t.Error(err)
			break
		}
		if err := views.Drop("cheap"); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	checkTextIndex(t, sess)
}
