// Softwaredist sketches the real-life application behind the paper
// (the eDos software-distribution project, companion report [4]): a
// package corpus replicated on mirrors, clients resolving it through
// *generic* documents (d@any, definition (9)) with a locality-aware
// pickDoc, and security updates disseminated mirror-to-mirror instead
// of hammering the origin.
//
//	go run ./examples/softwaredist
package main

import (
	"context"
	"fmt"
	"log"

	axml "axml"
	"axml/internal/gendoc"
	"axml/internal/workload"
)

func main() {
	net := axml.NewNetwork()
	sys := axml.NewSystem(net)
	defer sys.Close()

	origin := sys.MustAddPeer("origin")
	mirrors := []axml.PeerID{"mirror-eu", "mirror-us", "mirror-asia"}
	for _, m := range mirrors {
		sys.MustAddPeer(m)
	}
	client := sys.MustAddPeer("laptop")

	// WAN: the client is close to mirror-eu, far from everything else.
	for _, m := range append([]axml.PeerID{"origin"}, mirrors...) {
		net.SetLinkBoth("laptop", m, axml.Link{LatencyMs: 120, BytesPerMs: 300})
	}
	net.SetLinkBoth("laptop", "mirror-eu", axml.Link{LatencyMs: 8, BytesPerMs: 2000})

	// The origin builds the corpus; mirrors replicate it.
	corpus := workload.Packages(workload.DistSpec{Packages: 120, MaxDeps: 3, Seed: 42, DescWords: 5})
	if err := origin.InstallDocument("packages", corpus); err != nil {
		log.Fatal(err)
	}
	for _, m := range mirrors {
		// Origin pushes a copy: send(d@mirror, packages@origin), def (3).
		if _, err := sys.Eval(origin.ID, &axml.Send{
			Dest:    axml.DestDoc{Name: "packages", At: m},
			Payload: &axml.Doc{Name: "packages", At: origin.ID},
		}); err != nil {
			log.Fatal(err)
		}
		sys.Generics.RegisterDoc("packages", axml.DocReplica{Doc: "packages", At: m})
	}

	// The client resolves the *generic* document packages@any with a
	// nearest-replica pickDoc and asks for pending security updates —
	// through a session, the single declarative entrypoint: placement,
	// optimization and replica choice all happen behind Query.
	sys.Generics.SetStrategy(gendoc.Nearest{Net: net})
	sess := sys.MustSession(client.ID)
	defer sess.Close()
	tr := axml.NewTrace("security-updates")
	rows, err := sess.Query(axml.WithTrace(context.Background(), tr), `
		for $p in doc("packages")/package
		where $p/@severity = "security"
		return <update name="{$p/@name}" version="{$p/@version}"/>`)
	if err != nil {
		log.Fatal(err)
	}
	updates, err := rows.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("security updates pending: %d\n", len(updates))
	fmt.Print(axml.RenderTrace(tr.Spans()))
	for i, u := range updates {
		if i == 3 {
			fmt.Printf("  … and %d more\n", len(updates)-3)
			break
		}
		fmt.Println("  " + axml.SerializeXML(u))
	}

	// The same query against the far-away origin would be served by
	// shipping from a high-latency peer; the catalog told us better.
	st := net.Stats()
	fmt.Printf("\nnetwork totals: %d messages, %d bytes, makespan %.1fms\n",
		st.Messages, st.Bytes, st.MaxVT)
}
