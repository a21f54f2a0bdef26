// Subscription demonstrates continuous services (paper §2.2): a
// monitoring peer calls a continuous declarative service with a
// forward list pointing into its own inbox document; as the provider's
// catalog evolves, new matches stream in and accumulate as children of
// the forward target — without any further requests.
//
//	go run ./examples/subscription
package main

import (
	"context"
	"fmt"
	"log"

	axml "axml"
)

func main() {
	sys := axml.NewLocalSystem()
	defer sys.Close()
	monitor := sys.MustAddPeer("monitor")
	market := sys.MustAddPeer("market")

	if err := market.InstallDocument("listings", axml.MustParseXML(`
		<listings>
		  <sale><what>bike</what><price>80</price></sale>
		  <sale><what>piano</what><price>900</price></sale>
		</listings>`)); err != nil {
		log.Fatal(err)
	}

	// A continuous service: cheap sales. Continuous means the provider
	// keeps emitting results as its inputs evolve.
	watch := axml.MustParseQuery(`
		for $s in doc("listings")/sale
		where $s/price < 100
		return <deal>{$s/what/text()} ({$s/price/text()})</deal>`)
	if err := market.RegisterService(&axml.Service{
		Name: "cheapSales", Provider: market.ID, Body: watch, Continuous: true,
	}); err != nil {
		log.Fatal(err)
	}

	// The monitor's inbox receives the stream.
	if err := monitor.InstallDocument("inbox", axml.MustParseXML(`<inbox/>`)); err != nil {
		log.Fatal(err)
	}
	inbox := newest(monitor, "inbox")

	// Activate the call with a forward list: results go straight to
	// the inbox node (definition (6): send_{p1→fwList}(q1(…))).
	_, err := sys.Eval(monitor.ID, &axml.ServiceCall{
		Provider: market.ID, Service: "cheapSales",
		Forward: []axml.NodeRef{{Peer: monitor.ID, Node: inbox.ID}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after initial call:")
	fmt.Println(axml.SerializeXMLIndent(newest(monitor, "inbox")))

	// The market evolves: two new sales appear, one of them cheap.
	listings := newest(market, "listings")
	for _, sale := range []string{
		`<sale><what>lamp</what><price>12</price></sale>`,
		`<sale><what>car</what><price>9000</price></sale>`,
	} {
		if err := market.AddChild(listings.ID, axml.MustParseXML(sale)); err != nil {
			log.Fatal(err)
		}
	}
	// Deliver pending stream deltas deterministically.
	if _, err := sys.PumpSubscriptions(); err != nil {
		log.Fatal(err)
	}
	if n := len(newest(monitor, "inbox").ChildElementsByLabel("deal")); n != 2 {
		log.Fatalf("inbox holds %d deals after the update, want 2", n)
	}

	fmt.Println("after market update (one new deal streamed in):")
	fmt.Println(axml.SerializeXMLIndent(newest(monitor, "inbox")))

	// The accumulated stream is a document like any other: query it
	// through a session at the monitor.
	sess := sys.MustSession(monitor.ID)
	defer sess.Close()
	rows, err := sess.Query(context.Background(), `doc("inbox")/deal`)
	if err != nil {
		log.Fatal(err)
	}
	deals, err := rows.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session query over the inbox: %d deal(s)\n", len(deals))

	st := sys.Net.Stats()
	fmt.Printf("network: %d messages, %d bytes\n", st.Messages, st.Bytes)
}

// newest reads a document's newest root through a snapshot. Every write
// publishes a new root, so a root read earlier does not show it.
func newest(p *axml.Peer, name string) *axml.Node {
	h := p.Snapshot()
	defer h.Release()
	root, err := h.Root(name)
	if err != nil {
		log.Fatal(err)
	}
	return root
}
