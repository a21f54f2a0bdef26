// Quickstart: two peers, a declarative service, an AXML document whose
// embedded service call is activated in place, and the unified session
// API for asking the system questions — the minimal end-to-end tour of
// the framework (paper §2).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	axml "axml"
	"axml/internal/axmldoc"
)

func main() {
	// A system of two peers on a simulated network.
	sys := axml.NewLocalSystem()
	client := sys.MustAddPeer("client")
	store := sys.MustAddPeer("store")

	// The store hosts a product catalog…
	err := store.InstallDocument("catalog", axml.MustParseXML(`
		<catalog>
		  <item><name>chair</name><price>30</price></item>
		  <item><name>desk</name><price>120</price></item>
		  <item><name>lamp</name><price>15</price></item>
		</catalog>`))
	if err != nil {
		log.Fatal(err)
	}

	// …and a declarative service: its body is a visible query, which
	// is what the paper's optimizations exploit.
	bargains := axml.MustParseQuery(`
		for $i in doc("catalog")/item
		where $i/price < 100
		return <bargain>{$i/name/text()} at {$i/price/text()}</bargain>`)
	if err := store.RegisterService(&axml.Service{
		Name: "bargains", Provider: store.ID, Body: bargains,
	}); err != nil {
		log.Fatal(err)
	}

	// The client hosts an AXML document embedding a call to that
	// service (an intensional document: part of its content is the
	// *instruction* to obtain content).
	page := axml.MustParseXML(`
		<newsletter>
		  <title>This week's bargains</title>
		  <sc provider="store" service="bargains"/>
		</newsletter>`)
	if err := client.InstallDocument("newsletter", page); err != nil {
		log.Fatal(err)
	}

	// Activate the call: parameters ship to the provider, the service
	// body runs there, and the results land as siblings of the sc node
	// (paper §2.2 steps 1–3).
	act := axmldoc.New(sys.System, client)
	n, err := act.ActivateDocument(context.Background(), "newsletter")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("activated %d call(s)\n\n", n)

	h := client.Snapshot()
	doc, err := h.Root("newsletter")
	h.Release()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(axml.SerializeXMLIndent(doc))

	// Ad-hoc questions go through a session: one call that parses,
	// optimizes (shipping only the matching items across the network)
	// and evaluates, streaming the results.
	sess := sys.MustSession(client.ID)
	defer sess.Close()
	rows, err := sess.Query(context.Background(), `
		for $i in doc("catalog")/item
		where $i/price < 100
		return $i/name`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cheap items via session query:")
	for n, err := range rows.All() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("  -", n.TextContent())
	}

	st := sys.Net.Stats()
	fmt.Printf("network: %d messages, %d bytes moved\n", st.Messages, st.Bytes)
}
