package wire

import (
	"bufio"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/view"
	"axml/internal/xmltree"
)

// FuzzServerDispatch hardens the server side of the protocol: every
// line a client sends reaches dispatch verbatim after framing, so an
// arbitrary line must never panic the peer — at worst it earns an
// x:error reply. Each iteration gets a fresh system: mutating verbs
// (INSTALL/EXEC/DEFVIEW) are part of the surface and must not be able
// to wedge a later request either.
func FuzzServerDispatch(f *testing.F) {
	seeds := []string{
		`QUERYX doc("catalog")/item/name`,
		`QUERYX +noopt doc("catalog")/item`,
		`QUERYX +nocache+snapshot doc("catalog")/item`,
		`QUERYX +trace=t1 doc("catalog")/item`,
		`QUERYX for $i in doc("catalog")/item return $i/name`,
		`QUERYX +fwd+trace=abc for $i in doc("catalog")/item return $i`,
		`EXEC delete doc("catalog")/item[price > 100]`,
		`EXEC +trace=t2 replace doc("catalog")/item/price with <price>5</price>`,
		`PREPARE param $m; for $i in doc("catalog")/item where $i/price < $m return $i`,
		`CALL below <param><price>100</price></param>`,
		`INSTALL extra <doc><a/></doc>`,
		`INSTALL onlyname`,
		`DELETE doc("catalog")/item`,
		`REPLACE doc("catalog")/item/price <price>5</price>`,
		`DEFVIEW cheap@store for $i in doc("catalog")/item where $i/price < 100 return $i`,
		`LIST`,
		`VIEWS`,
		`PLACEMENTS`,
		`STATS`,
		`TRACE t1`,
		`QUIT`,
		`BOGUS nonsense`,
		`QUERYX +trace= doc("catalog")/item`,
		`QUERYX +snapshto doc("catalog")/item`,
		`QUERYX +`,
		`QUERYX+noopt doc("catalog")/item`,
		"QUERYX \x00\xff",
		`queryx lowercase is accepted`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		sys := core.NewSystem(netsim.New())
		p := sys.MustAddPeer("store")
		if err := p.InstallDocument("catalog", xmltree.MustParse(
			`<catalog><item><name>chair</name><price>30</price></item></catalog>`)); err != nil {
			t.Fatal(err)
		}
		views := view.NewManager(sys)
		defer views.Close()
		srv := &Server{Peer: p, Views: views}
		w := bufio.NewWriter(io.Discard)
		srv.dispatch(line, w)
		w.Flush()
	})
}

// FuzzClientStream hardens the client side: the reply stream is as
// untrusted as the request line (a compromised or just buggy peer must
// not be able to panic every client that connects to it). The fuzz
// input plays the server's verbatim reply bytes to a real Client over
// a pipe; the client must either parse rows or return an error.
func FuzzClientStream(f *testing.F) {
	seeds := []string{
		"<x:row><name>chair</name></x:row>\n<x:end rows=\"1\" vt=\"3.5\"/>\n",
		"<x:end rows=\"0\" vt=\"0\"/>\n",
		"<x:error code=\"bad-query\">no parse</x:error>\n",
		"<x:error code=\"canceled\">ctx</x:error>\n",
		"<x:error code=\"view-moved\">placement changed</x:error>\n",
		"<x:error code=\"peer-down\">gone</x:error>\n",
		"<x:error code=\"no-such-doc\">missing</x:error>\n",
		"<x:error>no code attribute</x:error>\n",
		"<x:ok/>\n",
		"<x:result><name>chair</name></x:result>\n",
		"not xml at all\n",
		"<unclosed\n",
		"<x:row></x:row>\n<x:row></x:row>\n",
		"<x:row/>\n<garbage>\n<x:end rows=\"2\" vt=\"1\"/>\n",
		"\n\n\n",
		"<x:end rows=\"NaN\" vt=\"bogus\"/>\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, reply string) {
		cliConn, srvConn := net.Pipe()
		defer cliConn.Close()

		// The fake server: drain whatever the client sends, play the
		// fuzz bytes, hang up.
		go func() {
			defer srvConn.Close()
			go io.Copy(io.Discard, srvConn) //nolint:errcheck // drain only
			srvConn.Write([]byte(reply))    //nolint:errcheck // best effort
		}()

		sc := bufio.NewScanner(cliConn)
		sc.Buffer(make([]byte, 64*1024), maxLine)
		c := &Client{conn: cliConn, sc: sc, ioTimeout: 2 * time.Second}

		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		rows, err := c.Query(ctx, `doc("catalog")/item`)
		if err != nil {
			return // a rejected stream is fine; a panic is not
		}
		_, _ = rows.Collect()
	})
}
