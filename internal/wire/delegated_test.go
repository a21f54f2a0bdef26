package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"axml/internal/core"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// TestDelegatedRowsStayBytes: a query of the delegated_hot shape, planned
// at store over a catalog at data and written out by the QUERYX row
// writer, parses nothing on the serving peer. Each row goes from the
// data peer's reply into the connection buffer as the bytes it came
// in, and the lines are the ones AppendLine writes for the forest data
// answers. The allocations per op are pinned: 1,224 while the serving
// peer parsed the reply and re-encoded every row, 443 while x:end
// was built as a tree and serialized, and 436 while the serving peer's
// session parsed the statement text on every request.
func TestDelegatedRowsStayBytes(t *testing.T) {
	store, views := newStore(t, nil)
	data := views.System().MustAddPeer("data")
	catalog := workload.Catalog(workload.CatalogSpec{Items: 200, PriceMax: 1000, DescWords: 10, Seed: 1})
	if err := data.InstallDocument("catalog", catalog); err != nil {
		t.Fatal(err)
	}
	srv := &Server{Peer: store, Views: views}
	const src = `for $i in doc("catalog")/item where $i/price < 300 return $i`

	res, err := views.System().Eval("data", &core.Query{Q: xquery.MustParse(src), At: "data"})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, n := range res.Forest {
		if want, err = xmltree.AppendLine(append(want, "<x:row>"...), n); err != nil {
			t.Fatal(err)
		}
		want = append(want, "</x:row>\n"...)
	}
	want = fmt.Appendf(want, "<x:end n=\"%d\"/>\n", len(res.Forest))

	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	parses := views.System().ReplyParses()
	for i := 0; i < 3; i++ {
		out.Reset()
		srv.doQueryStream(src, w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("the stream wrote\n%.300s\nwant\n%.300s", out.Bytes(), want)
		}
	}
	if n := views.System().ReplyParses() - parses; n != 0 {
		t.Errorf("the serving peer parsed %d replies or rows, want 0", n)
	}

	if raceEnabled {
		return // the race detector allocates on its own account
	}
	w.Reset(io.Discard)
	allocs := testing.AllocsPerRun(20, func() {
		srv.doQueryStream(src, w)
		_ = w.Flush()
	})
	if allocs != 406 {
		t.Errorf("a delegated stream allocates %v times per op, want 406", allocs)
	}
}
