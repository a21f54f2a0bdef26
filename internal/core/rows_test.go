package core

import (
	"bytes"
	"context"
	"testing"

	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// TestCutForestMatchesParseForest is the differential test of the row
// cutter: for the forests of the workload documents, every row it cuts
// out of a reply parses to the tree parseForest reads there (canonical
// hash, §2.3), and the line the wire writes for it is AppendLine's for
// that tree — verbatim for a row without CR or LF, re-encoded for one
// with. The CR/LF rows come from a document whose text and attribute
// values hold them.
func TestCutForestMatchesParseForest(t *testing.T) {
	catalog := workload.Catalog(workload.CatalogSpec{Items: 60, PriceMax: 1000, DescWords: 10, Seed: 3})
	notes := xmltree.E("notes")
	for _, text := range []string{"one line", "two\nlines", "crlf\r\nend", "tab\there"} {
		notes.AppendChild(xmltree.E("note", xmltree.A("v", text), xmltree.T(text)))
	}
	docs := []*xmltree.Node{
		catalog,
		workload.Reviews(catalog, 2, 3),
		workload.Packages(workload.DistSpec{Packages: 40, MaxDeps: 3, Seed: 3, DescWords: 4, Severities: []string{"low", "high"}}),
		workload.Update(7, "high", 3),
		notes,
	}
	lineBreaks := 0
	for _, doc := range docs {
		// The document's children, and every element one level down:
		// whole items, and the small rows a projection returns.
		forests := [][]*xmltree.Node{doc.Children, nil}
		for _, c := range doc.Children {
			forests[1] = append(forests[1], c.ChildElements()...)
		}
		for _, forest := range forests {
			reply := serializeForest(forest)
			want, err := (&System{}).parseForest(reply)
			if err != nil {
				t.Fatal(err)
			}
			rows, ok := cutForest(reply)
			if !ok {
				t.Fatalf("<%s>: the cutter refused %.80q", doc.Label, reply)
			}
			if len(rows) != len(want) {
				t.Fatalf("<%s>: %d rows cut, parseForest reads %d", doc.Label, len(rows), len(want))
			}
			for i, enc := range rows {
				r := Row{enc: enc}
				line, err := r.AppendLine(nil)
				if err != nil {
					t.Fatal(err)
				}
				if wantLine, _ := xmltree.AppendLine(nil, want[i]); !bytes.Equal(line, wantLine) {
					t.Errorf("<%s> row %d: the wire writes %q, want %q", doc.Label, i, line, wantLine)
				}
				n, err := r.Node()
				if err != nil {
					t.Fatal(err)
				}
				if xmltree.Hash(n) != xmltree.Hash(want[i]) {
					t.Errorf("<%s> row %d: %q parses to another tree than parseForest's", doc.Label, i, enc)
				}
				if bytes.ContainsAny(enc, "\r\n") {
					lineBreaks++
				}
			}
		}
	}
	if lineBreaks == 0 {
		t.Error("no row held CR or LF")
	}
	for _, reply := range []string{"<x:forest/>", "<x:forest></x:forest>"} {
		if rows, ok := cutForest([]byte(reply)); !ok || len(rows) != 0 {
			t.Errorf("cutForest(%s) = %q, %v: want no rows", reply, rows, ok)
		}
	}
	for _, reply := range []string{"<x:forest> <a/></x:forest>", "<x:forest>text</x:forest>", "<x:forest><!--c--></x:forest>", "<x:other><a/></x:other>", "<x:forest><a/>"} {
		if _, ok := cutForest([]byte(reply)); ok {
			t.Errorf("cutForest(%s) accepted", reply)
		}
	}
}

// TestEvalReplyBytes: the data peer writes its rows straight into the
// reply, and the reply is byte for byte serializeForest of the forest
// an owned evaluation returns, with the same completion time — for the
// ledger's delegated shapes, a projection, a constructor, an empty
// answer, a whole document, and a reply passed on from a further peer.
func TestEvalReplyBytes(t *testing.T) {
	sys, hot := benchSystem(t)
	sys.MustAddPeer("relay")
	shapes := []Expr{hot, &Doc{Name: "catalog", At: "data"}, &EvalAt{At: "data", E: hot}}
	for _, src := range []string{
		`for $i in doc("catalog")/item where $i/price < 50 return $i/name`,
		`for $i in doc("catalog")/item where $i/price < 90 return <h7>{$i/name}</h7>`,
		`for $i in doc("catalog")/item where $i/price < 0 return $i`,
		`doc("catalog")/item[3]/@id`,
	} {
		shapes = append(shapes, &Query{Q: xquery.MustParse(src), At: "data"})
	}
	for _, e := range shapes {
		at := netsim.PeerID("data")
		if _, ok := e.(*EvalAt); ok {
			at = "relay" // relay asks data and passes the reply on
		}
		want, err := sys.Eval(at, e)
		if err != nil {
			t.Fatal(err)
		}
		h := &peerHandler{sys: sys, peer: mustPeer(t, sys, at)}
		for round := 0; round < 2; round++ { // the second with a size hint
			reply, kind, vt, err := h.HandleCallCtx(context.Background(),
				netsim.Message{From: "client", To: at, Kind: "eval", Body: SerializeExpr(e)}, 0)
			if err != nil || kind != "result" {
				t.Fatalf("%s: %q, %v", e, kind, err)
			}
			if wantBytes := serializeForest(want.Forest); !bytes.Equal(reply, wantBytes) {
				t.Errorf("%s: reply\n%.200s\nwant\n%.200s", e, reply, wantBytes)
			}
			if vt != want.VT {
				t.Errorf("%s: reply completes at %v ms, the evaluation at %v", e, vt, want.VT)
			}
		}
	}
}

func mustPeer(t *testing.T, sys *System, id netsim.PeerID) *peer.Peer {
	t.Helper()
	p, ok := sys.Peer(id)
	if !ok {
		t.Fatalf("no peer %s", id)
	}
	return p
}

// TestRowThatDoesNotParse: a row the cutter accepts but whose bytes do
// not parse fails when it is read, and the failure ends the stream.
func TestRowThatDoesNotParse(t *testing.T) {
	rows, ok := cutForest([]byte(`<x:forest><a/><a></b><c/></x:forest>`))
	if !ok || len(rows) != 3 {
		t.Fatalf("cutForest = %q, %v", rows, ok)
	}
	cur := encodedCursor(rows, 0, nil)
	defer cur.Close()
	if n, err := cur.Next(); err != nil || n.Label != "a" {
		t.Fatalf("first row: %v, %v", n, err)
	}
	for i := 0; i < 2; i++ {
		if n, err := cur.Next(); err == nil {
			t.Fatalf("pull %d after <a></b>: %v, no error", i, n)
		}
	}
}
