// Benchmarks regenerating the experiment suite (one per table of
// EXPERIMENTS.md, E1–E11) plus micro-benchmarks of the substrates.
// Each experiment benchmark evaluates the competing plans on fresh
// systems and reports wire bytes per operation alongside wall time,
// so the shape (who wins, by what factor) is visible in the -benchmem
// output. cmd/axmlbench prints the same data as tables.
package axml_test

import (
	"fmt"
	"testing"

	axml "axml"
	"axml/internal/bench"
	"axml/internal/core"
	"axml/internal/gendoc"
	"axml/internal/netsim"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xpath"
	"axml/internal/xquery"
	"axml/internal/xtype"
)

// --- Experiment benchmarks (tables E1–E10) ------------------------------

// evalOnFresh builds a fresh system per iteration and evaluates the
// plan, reporting wire bytes and virtual time as custom metrics.
func evalOnFresh(b *testing.B, mk func() (*core.System, core.Expr, netsim.PeerID)) {
	b.Helper()
	var bytes, vt float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, e, at := mk()
		res, err := sys.Eval(at, e)
		if err != nil {
			b.Fatal(err)
		}
		st := sys.Net.Stats()
		bytes = float64(st.Bytes)
		vt = res.VT
		sys.Close()
	}
	b.ReportMetric(bytes, "wirebytes/op")
	b.ReportMetric(vt, "simms/op")
}

func BenchmarkE1SelectionPushdown(b *testing.B) {
	for _, sel := range []float64{0.01, 0.2} {
		threshold := int(sel * 1000)
		qsrc := fmt.Sprintf(
			`for $i in doc("catalog")/item where $i/price < %d return <hit>{$i/name}</hit>`, threshold)
		for _, mode := range []string{"naive", "pushed"} {
			b.Run(fmt.Sprintf("sel=%.2f/%s", sel, mode), func(b *testing.B) {
				evalOnFresh(b, func() (*core.System, core.Expr, netsim.PeerID) {
					sys := benchSystem("client", "data")
					installBenchCatalog(sys, "data", 500)
					q := xquery.MustParse(qsrc)
					var e core.Expr = &core.Query{Q: q, At: "client"}
					if mode == "pushed" {
						dec, ok := xquery.Decompose(q)
						if !ok {
							b.Fatal("not decomposable")
						}
						e = &core.Query{Q: dec.Local, At: "client", Args: []core.Expr{
							&core.EvalAt{At: "data", E: &core.Query{Q: dec.Remote, At: "data"}},
						}}
					}
					return sys, e, "client"
				})
			})
		}
	}
}

func BenchmarkE2QueryDelegation(b *testing.B) {
	qsrc := `for $i in doc("catalog")/item, $j in doc("catalog")/item
		where $i/price = $j/price and $i/@id != $j/@id return <dup>{$i/name}</dup>`
	for _, mode := range []string{"local-loaded", "delegated"} {
		b.Run(mode, func(b *testing.B) {
			evalOnFresh(b, func() (*core.System, core.Expr, netsim.PeerID) {
				sys := benchSystem("client", "idle")
				p, _ := sys.Peer("client")
				if err := p.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{
					Items: 100, PriceMax: 100, Seed: 11})); err != nil {
					b.Fatal(err)
				}
				sys.SetComputeFactor("client", 64)
				q := xquery.MustParse(qsrc)
				var e core.Expr = &core.Query{Q: q, At: "client"}
				if mode == "delegated" {
					e = &core.EvalAt{At: "idle", E: &core.Query{Q: q, At: "idle"}}
				}
				return sys, e, "client"
			})
		})
	}
}

func BenchmarkE3Rerouting(b *testing.B) {
	payload := xmltree.E("blob", xmltree.T(string(make([]byte, 8192))))
	for _, mode := range []string{"direct-slow", "relayed"} {
		b.Run(mode, func(b *testing.B) {
			evalOnFresh(b, func() (*core.System, core.Expr, netsim.PeerID) {
				net := netsim.New()
				sys := core.NewSystem(net)
				sys.MustAddPeer("src")
				sys.MustAddPeer("dst")
				sys.MustAddPeer("hub")
				net.SetLinkBoth("src", "dst", netsim.Link{LatencyMs: 150, BytesPerMs: 20})
				net.SetLinkBoth("src", "hub", netsim.Link{LatencyMs: 4, BytesPerMs: 2000})
				net.SetLinkBoth("hub", "dst", netsim.Link{LatencyMs: 4, BytesPerMs: 2000})
				tree := xmltree.DeepCopy(payload)
				var e core.Expr = &core.Send{Dest: core.DestPeer{P: "dst"},
					Payload: &core.Tree{Node: tree, At: "src"}}
				if mode == "relayed" {
					e = &core.Relay{Via: []netsim.PeerID{"hub"}, Dest: core.DestPeer{P: "dst"},
						Payload: &core.Tree{Node: tree, At: "src"}}
				}
				return sys, e, "src"
			})
		})
	}
}

func BenchmarkE4TransferSharing(b *testing.B) {
	qsrc := `param $a, $b; <cmp>{count($a/item), count($b/item)}</cmp>`
	for _, mode := range []string{"unshared", "shared"} {
		b.Run(mode, func(b *testing.B) {
			evalOnFresh(b, func() (*core.System, core.Expr, netsim.PeerID) {
				sys := benchSystem("client", "data")
				installBenchCatalog(sys, "data", 500)
				q := xquery.MustParse(qsrc)
				e := &core.Query{Q: q, At: "client", ShareArgs: mode == "shared",
					Args: []core.Expr{
						&core.Doc{Name: "catalog", At: "data"},
						&core.Doc{Name: "catalog", At: "data"},
					}}
				return sys, e, "client"
			})
		})
	}
}

func BenchmarkE5PushOverCall(b *testing.B) {
	qsrc := `param $in; for $o in $in where $o/price < 100 return $o/name`
	for _, mode := range []string{"fetch-filter", "pushed"} {
		b.Run(mode, func(b *testing.B) {
			evalOnFresh(b, func() (*core.System, core.Expr, netsim.PeerID) {
				sys := benchSystem("client", "provider")
				installBenchCatalog(sys, "provider", 500)
				registerOffers(sys, "provider")
				q := xquery.MustParse(qsrc)
				at := netsim.PeerID("client")
				if mode == "pushed" {
					at = "provider"
				}
				inner := &core.Query{Q: q, At: at, Args: []core.Expr{
					&core.ServiceCall{Provider: "provider", Service: "offers"},
				}}
				var e core.Expr = inner
				if mode == "pushed" {
					e = &core.EvalAt{At: "provider", E: inner}
				}
				return sys, e, "client"
			})
		})
	}
}

func BenchmarkE6PickStrategies(b *testing.B) {
	// The strategies differ in latency, not compute; benchmark the
	// evaluation through each.
	for _, strat := range []string{"first", "nearest"} {
		b.Run(strat, func(b *testing.B) {
			evalOnFresh(b, func() (*core.System, core.Expr, netsim.PeerID) {
				peers := []netsim.PeerID{"client", "rep0", "rep1", "rep2"}
				net := netsim.New()
				netsim.RandomWAN(net, peers, 17, 5, 120, 100, 2000)
				sys := core.NewSystem(net)
				for _, p := range peers {
					sys.MustAddPeer(p)
				}
				for _, id := range peers[1:] {
					p, _ := sys.Peer(id)
					if err := p.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{
						Items: 50, PriceMax: 100, Seed: 9})); err != nil {
						b.Fatal(err)
					}
					sys.Generics.RegisterDoc("catalog", axml.DocReplica{Doc: "catalog", At: id})
				}
				if strat == "nearest" {
					sys.Generics.SetStrategy(gendoc.Nearest{Net: sys.Net})
				}
				return sys, &core.Doc{Name: "catalog", At: core.AnyPeer}, "client"
			})
		})
	}
}

func BenchmarkE7Continuous(b *testing.B) {
	for _, mode := range []string{"recompute", "incremental"} {
		b.Run(mode, func(b *testing.B) {
			cat := workload.Catalog(workload.CatalogSpec{Items: 1000, PriceMax: 100, Seed: 21})
			env := &xquery.Env{Resolve: func(string) (*xmltree.Node, error) { return cat, nil }}
			q := xquery.MustParse(
				`for $i in doc("c")/item where $i/price < 50 return <hit>{$i/name/text()}</hit>`)
			var delta func() ([]*xmltree.Node, error)
			if mode == "incremental" {
				inc, ok := xquery.NewDeltaFor(q, env)
				if !ok {
					b.Fatal("not incrementalizable")
				}
				delta = func() ([]*xmltree.Node, error) {
					ev, err := inc.DeltaEvents()
					if err != nil {
						return nil, err
					}
					return ev.AddedTrees(), nil
				}
			} else {
				delta = xquery.NewRecompute(q, env).Delta
			}
			if _, err := delta(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cat.AppendChild(xmltree.E("item",
					xmltree.A("id", fmt.Sprintf("b%d", i)),
					xmltree.E("name", xmltree.T(fmt.Sprintf("fresh-%d", i))),
					xmltree.E("price", xmltree.T(fmt.Sprint(i%100)))))
				if _, err := delta(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE8Optimizer(b *testing.B) {
	// Measures the optimizer itself: plan search time over the default
	// rule set for the Example 1 query.
	sys := axml.Wrap(benchSystem("client", "data", "spare"))
	installBenchCatalog(sys.System, "data", 200)
	q := xquery.MustParse(
		`for $i in doc("catalog")/item where $i/price < 30 return <hit>{$i/name}</hit>`)
	e := &core.Query{Q: q, At: "client"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, _, err := axml.Optimize(sys, "client", e, axml.OptOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Derivation) == 0 {
			b.Fatal("optimizer found nothing")
		}
	}
}

func BenchmarkE9SoftwareDist(b *testing.B) {
	for _, mode := range []string{"pull", "tree"} {
		b.Run(mode, func(b *testing.B) {
			var originBytes float64
			for i := 0; i < b.N; i++ {
				t, err := bench.E9SoftwareDist([]int{7}, 60)
				if err != nil {
					b.Fatal(err)
				}
				row := t.Rows[0]
				if mode == "pull" {
					fmt.Sscanf(row[1], "%f", &originBytes)
				} else {
					fmt.Sscanf(row[2], "%f", &originBytes)
				}
			}
			b.ReportMetric(originBytes, "originbytes/op")
		})
	}
}

func BenchmarkE10Activation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E10Activation(4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11Views(b *testing.B) {
	// Bytes shipped with a view at every client vs none; the E11 table
	// reports the full sweep.
	for _, mode := range []string{"no-view", "views"} {
		b.Run(mode, func(b *testing.B) {
			var bytes float64
			for i := 0; i < b.N; i++ {
				t, err := bench.E11Views(3, 100, 3, 10)
				if err != nil {
					b.Fatal(err)
				}
				row := t.Rows[0]
				if mode == "views" {
					row = t.Rows[len(t.Rows)-1]
				}
				fmt.Sscanf(row[1], "%f", &bytes)
			}
			b.ReportMetric(bytes, "wirebytes/op")
		})
	}
}

// --- Substrate micro-benchmarks -----------------------------------------

func BenchmarkXMLParse(b *testing.B) {
	doc := xmltree.Serialize(workload.Catalog(workload.CatalogSpec{
		Items: 200, PriceMax: 100, DescWords: 10, Seed: 1}))
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.Parse(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMLSerialize(b *testing.B) {
	tree := workload.Catalog(workload.CatalogSpec{Items: 200, PriceMax: 100, DescWords: 10, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = xmltree.Serialize(tree)
	}
}

func BenchmarkCanonicalHash(b *testing.B) {
	tree := workload.Catalog(workload.CatalogSpec{Items: 200, PriceMax: 100, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = xmltree.Hash(tree)
	}
}

func BenchmarkXPathSelect(b *testing.B) {
	tree := workload.Catalog(workload.CatalogSpec{Items: 500, PriceMax: 100, Seed: 1})
	c := xpath.MustCompile(`item[price < 50]/name`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Select(tree); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXQueryFLWR(b *testing.B) {
	tree := workload.Catalog(workload.CatalogSpec{Items: 500, PriceMax: 100, Seed: 1})
	env := &xquery.Env{Resolve: func(string) (*xmltree.Node, error) { return tree, nil }}
	q := xquery.MustParse(
		`for $i in doc("c")/item where $i/price < 50 order by $i/price return <r>{$i/name}</r>`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGlushkovValidate(b *testing.B) {
	schema := xtype.MustParseSchema(`
root catalog
catalog := item*
item := (name, price, desc?) @id @cat
name := #PCDATA
price := #PCDATA
desc := #PCDATA
`)
	tree := workload.Catalog(workload.CatalogSpec{Items: 200, PriceMax: 100, DescWords: 3, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !schema.Valid(tree) {
			b.Fatal("invalid")
		}
	}
}

func BenchmarkExprSerialization(b *testing.B) {
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 50 return $i/name`)
	e := &core.EvalAt{At: "data", E: &core.Query{Q: q, At: "data", Args: []core.Expr{
		&core.Doc{Name: "catalog", At: "data"},
	}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire := core.SerializeExpr(e)
		if _, err := core.ParseExprBytes(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers -------------------------------------------------------------

func benchSystem(peers ...netsim.PeerID) *core.System {
	net := netsim.New()
	netsim.Uniform(net, peers, netsim.Link{LatencyMs: 20, BytesPerMs: 200})
	sys := core.NewSystem(net)
	for _, p := range peers {
		sys.MustAddPeer(p)
	}
	return sys
}

func installBenchCatalog(sys *core.System, at netsim.PeerID, items int) {
	p, _ := sys.Peer(at)
	if err := p.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{
		Items: items, PriceMax: 1000, DescWords: 10, Seed: 7})); err != nil {
		panic(err)
	}
}

func registerOffers(sys *core.System, at netsim.PeerID) {
	p, _ := sys.Peer(at)
	body := xquery.MustParse(
		`for $i in doc("catalog")/item return <offer>{$i/name, $i/price}</offer>`)
	if err := p.RegisterService(&axml.Service{Name: "offers", Provider: at, Body: body}); err != nil {
		panic(err)
	}
}
