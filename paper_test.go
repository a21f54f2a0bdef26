package axml_test

import (
	"fmt"
	"strings"
	"testing"
	"text/tabwriter"

	"axml/internal/core"
	"axml/internal/gendoc"
	"axml/internal/netsim"
	"axml/internal/service"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// The EDBT'06 paper has no numeric evaluation section: its claims are
// the equivalence rules (10)–(16), Example 1 and definition (9). Each
// experiment below puts the plain evaluation of definitions (1)–(9)
// beside the rewritten plan over netsim, which charges exact bytes,
// messages and virtual milliseconds, so every number is a literal. A
// change that moves one changes what a rewriting buys and must say so.
// `go test -run TestPaperExperiments -v .` prints the tables.

// wanLink is the cross-peer profile: 20 ms latency, 200 bytes/ms
// (≈1.6 Mbit/s) — a 2006-era WAN.
var wanLink = netsim.Link{LatencyMs: 20, BytesPerMs: 200}

// charge is what one plan cost on the simulated network.
type charge struct {
	bytes, msgs int64
	rows        int
	ms          float64
}

// paperRow is one setting of an experiment's parameter: the charge of
// every competing plan, in the experiment's plan order, and the plan
// that won on the quantity the claim is about.
type paperRow struct {
	param  string
	plans  []charge
	winner string
}

func byBytes(c charge) float64 { return float64(c.bytes) }
func byMs(c charge) float64    { return c.ms }

func TestPaperExperiments(t *testing.T) {
	for _, exp := range []struct {
		name  string
		plans []string
		rows  string // what the rows column counts
		winBy func(charge) float64
		run   func(t *testing.T) []paperRow
		want  []paperRow
	}{
		{"E1_pushdown_rules_11_10", []string{"naive", "pushed"}, "rows", byBytes, e1Pushdown, []paperRow{
			{"sel=0.01", []charge{{36385, 2, 3, 224.75}, {788, 2, 3, 46.84}}, "pushed"},
			{"sel=0.50", []charge{{36385, 2, 81, 225.21}, {14881, 2, 81, 119.96}}, "pushed"},
		}},
		{"E2_delegation_rule_10", []string{"local", "delegate"}, "rows", byMs, e2Delegation, []paperRow{
			{"load=1", []charge{{0, 0, 82, 1.49}, {11570, 4, 82, 139.34}}, "local"},
			{"load=128", []charge{{0, 0, 82, 191.23}, {11570, 4, 82, 139.34}}, "delegate"},
		}},
		{"E3_rerouting_rule_12", []string{"direct", "relay"}, "rows", byMs, e3Rerouting, []paperRow{
			{"4KB slow direct", []charge{{4368, 2, 0, 518.40}, {8736, 4, 0, 20.37}}, "relay"},
			{"4KB fast direct", []charge{{4368, 2, 0, 12.18}, {8736, 4, 0, 20.37}}, "direct"},
		}},
		{"E4_sharing_rule_13", []string{"unshared", "shared"}, "rows", byBytes, e4Sharing, []paperRow{
			{"items=100", []charge{{32510, 4, 1, 124.09}, {16255, 2, 1, 124.09}}, "shared"},
		}},
		{"E5_push_over_call_rule_16", []string{"fetch", "push"}, "rows", byBytes, e5PushOverCall, []paperRow{
			{"sel=0.05", []charge{{12311, 2, 9, 108.59}, {571, 2, 9, 49.89}}, "push"},
		}},
		{"E6_pickDoc_def_9", []string{"first", "random", "roundrobin", "nearest"}, "replicas read", byMs, e6PickDoc, []paperRow{
			{"4 replicas, 12 fetches", []charge{
				{96744, 24, 1, 178.29}, {96744, 24, 4, 166.42}, {96744, 24, 4, 154.66}, {96744, 24, 1, 172.77},
			}, "roundrobin"},
		}},
		{"E9_software_distribution", []string{"pull", "tree"}, "copies", byBytes, e9SoftwareDist, []paperRow{
			{"mirrors=3", []charge{{20481, 6, 3, 84.32}, {6918, 6, 3, 104.71}}, "tree"},
			{"mirrors=7", []charge{{47789, 14, 7, 84.32}, {6918, 14, 7, 124.21}}, "tree"},
		}},
	} {
		t.Run(exp.name, func(t *testing.T) {
			got := exp.run(t)
			for i := range got {
				best := 0
				for j, c := range got[i].plans {
					if exp.winBy(c) < exp.winBy(got[i].plans[best]) {
						best = j
					}
				}
				got[i].winner = exp.plans[best]
			}
			t.Log(paperTable(exp.plans, exp.rows, got))
			if len(got) != len(exp.want) {
				t.Fatalf("%d rows, want %d", len(got), len(exp.want))
			}
			for i, w := range exp.want {
				if g := got[i]; paperLiteral(g) != paperLiteral(w) {
					t.Errorf("row %d:\n got %s\nwant %s", i, paperLiteral(g), paperLiteral(w))
				}
			}
		})
	}
}

// paperLiteral renders a row as the Go literal of the table above,
// virtual milliseconds to 0.01.
func paperLiteral(r paperRow) string {
	cs := make([]string, len(r.plans))
	for i, c := range r.plans {
		cs[i] = fmt.Sprintf("{%d, %d, %d, %.2f}", c.bytes, c.msgs, c.rows, c.ms)
	}
	return fmt.Sprintf("{%q, []charge{%s}, %q}", r.param, strings.Join(cs, ", "), r.winner)
}

func paperTable(plans []string, rowsCol string, rows []paperRow) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	fmt.Fprintf(w, "\n\tplan\tbytes\tmsgs\t%s\tms\t\n", rowsCol)
	for _, r := range rows {
		for i, c := range r.plans {
			param, mark := "", ""
			if i == 0 {
				param = r.param
			}
			if plans[i] == r.winner {
				mark = "winner"
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%.2f\t%s\n", param, plans[i], c.bytes, c.msgs, c.rows, c.ms, mark)
		}
	}
	w.Flush()
	return sb.String()
}

// measure evaluates e at peer at, then closes sys.
func measure(t *testing.T, sys *core.System, at netsim.PeerID, e core.Expr) charge {
	t.Helper()
	defer sys.Close()
	res, err := sys.Eval(at, e)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Net.Stats()
	return charge{st.Bytes, st.Messages, len(res.Forest), res.VT}
}

// wanSystem joins the peers pairwise by wanLink.
func wanSystem(peers ...netsim.PeerID) *core.System {
	net := netsim.New()
	netsim.Uniform(net, peers, wanLink)
	sys := core.NewSystem(net)
	for _, p := range peers {
		sys.MustAddPeer(p)
	}
	return sys
}

func installCatalog(t *testing.T, sys *core.System, at netsim.PeerID, spec workload.CatalogSpec) {
	t.Helper()
	p, _ := sys.Peer(at)
	if err := p.InstallDocument("catalog", workload.Catalog(spec)); err != nil {
		t.Fatal(err)
	}
}

// e1Pushdown is Example 1: a selective query over a remote catalog,
// shipped whole by definition (7) or split by rule (11) and delegated
// by rule (10).
func e1Pushdown(t *testing.T) []paperRow {
	var rows []paperRow
	for _, sel := range []float64{0.01, 0.5} {
		q := xquery.MustParse(fmt.Sprintf(
			`for $i in doc("catalog")/item where $i/price < %d return <hit>{$i/name}</hit>`, int(sel*1000)))
		dec, ok := xquery.Decompose(q)
		if !ok {
			t.Fatal("the Example 1 query does not decompose")
		}
		row := paperRow{param: fmt.Sprintf("sel=%.2f", sel)}
		for _, e := range []core.Expr{
			&core.Query{Q: q, At: "client"},
			&core.Query{Q: dec.Local, At: "client", Args: []core.Expr{
				&core.EvalAt{At: "data", E: &core.Query{Q: dec.Remote, At: "data"}},
			}},
		} {
			sys := wanSystem("client", "data")
			installCatalog(t, sys, "data", workload.CatalogSpec{Items: 200, PriceMax: 1000, DescWords: 10, Seed: 7})
			row.plans = append(row.plans, measure(t, sys, "client", e))
		}
		rows = append(rows, row)
	}
	return rows
}

// e2Delegation is rule (10): a self-join over local data on a peer
// slowed by a load factor, or delegated to an idle peer — which ships
// the data but wins once the slowdown exceeds the transfer.
func e2Delegation(t *testing.T) []paperRow {
	q := xquery.MustParse(`for $i in doc("catalog")/item, $j in doc("catalog")/item
		where $i/price = $j/price and $i/@id != $j/@id
		return <dup>{$i/name}</dup>`)
	var rows []paperRow
	for _, load := range []float64{1, 128} {
		row := paperRow{param: fmt.Sprintf("load=%g", load)}
		for _, e := range []core.Expr{
			&core.Query{Q: q, At: "client"},
			&core.EvalAt{At: "idle", E: &core.Query{Q: q, At: "idle"}},
		} {
			sys := wanSystem("client", "idle")
			installCatalog(t, sys, "client", workload.CatalogSpec{Items: 100, PriceMax: 100, Seed: 11})
			sys.SetComputeFactor("client", load)
			row.plans = append(row.plans, measure(t, sys, "client", e))
		}
		rows = append(rows, row)
	}
	return rows
}

// e3Rerouting is rule (12) in both directions: a 4 KB transfer sent
// direct or relayed through a hub, on a slow direct link and on a fast
// one — "not always" profitable (§3.3).
func e3Rerouting(t *testing.T) []paperRow {
	payload := make([]byte, 4*1024)
	for i := range payload {
		payload[i] = 'a' + byte(i%26)
	}
	hop := netsim.Link{LatencyMs: 4, BytesPerMs: 2000}
	var rows []paperRow
	for _, c := range []struct {
		name   string
		direct netsim.Link
	}{
		{"4KB slow direct", netsim.Link{LatencyMs: 150, BytesPerMs: 20}},
		{"4KB fast direct", netsim.Link{LatencyMs: 5, BytesPerMs: 2000}},
	} {
		row := paperRow{param: c.name}
		for _, relay := range []bool{false, true} {
			net := netsim.New()
			sys := core.NewSystem(net)
			for _, p := range []netsim.PeerID{"src", "dst", "hub"} {
				sys.MustAddPeer(p)
			}
			net.SetLinkBoth("src", "dst", c.direct)
			net.SetLinkBoth("src", "hub", hop)
			net.SetLinkBoth("hub", "dst", hop)
			tree := &core.Tree{Node: xmltree.E("blob", xmltree.T(string(payload))), At: "src"}
			var e core.Expr = &core.Send{Dest: core.DestPeer{P: "dst"}, Payload: tree}
			if relay {
				e = &core.Relay{Via: []netsim.PeerID{"hub"}, Dest: core.DestPeer{P: "dst"}, Payload: tree}
			}
			row.plans = append(row.plans, measure(t, sys, "src", e))
		}
		rows = append(rows, row)
	}
	return rows
}

// e4Sharing is rule (13): a query reading the same remote document
// twice, as two transfers or one shared.
func e4Sharing(t *testing.T) []paperRow {
	q := xquery.MustParse(`param $a, $b; <cmp>{count($a/item), count($b/item)}</cmp>`)
	row := paperRow{param: "items=100"}
	for _, share := range []bool{false, true} {
		sys := wanSystem("client", "data")
		installCatalog(t, sys, "data", workload.CatalogSpec{Items: 100, PriceMax: 100, DescWords: 8, Seed: 3})
		row.plans = append(row.plans, measure(t, sys, "client", &core.Query{Q: q, At: "client", ShareArgs: share,
			Args: []core.Expr{&core.Doc{Name: "catalog", At: "data"}, &core.Doc{Name: "catalog", At: "data"}}}))
	}
	return []paperRow{row}
}

// e5PushOverCall is rule (16): filtering a declarative service's
// results at the caller, or composing the filter with the service body
// at the provider.
func e5PushOverCall(t *testing.T) []paperRow {
	q := xquery.MustParse(`param $in; for $o in $in where $o/price < 50 return $o/name`)
	args := []core.Expr{&core.ServiceCall{Provider: "provider", Service: "offers"}}
	row := paperRow{param: "sel=0.05"}
	for _, e := range []core.Expr{
		&core.Query{Q: q, At: "client", Args: args},
		&core.EvalAt{At: "provider", E: &core.Query{Q: q, At: "provider", Args: args}},
	} {
		sys := wanSystem("client", "provider")
		installCatalog(t, sys, "provider", workload.CatalogSpec{Items: 200, PriceMax: 1000, DescWords: 10, Seed: 5})
		p, _ := sys.Peer("provider")
		if err := p.RegisterService(&service.Service{Name: "offers", Provider: "provider", Body: xquery.MustParse(
			`for $i in doc("catalog")/item return <offer>{$i/name, $i/price}</offer>`)}); err != nil {
			t.Fatal(err)
		}
		row.plans = append(row.plans, measure(t, sys, "client", e))
	}
	return []paperRow{row}
}

// e6PickDoc is definition (9): twelve fetches of catalog@any over four
// replicas on a random WAN, one pickDoc strategy per plan. ms is the
// mean fetch; rows counts the replicas the strategy read from.
func e6PickDoc(t *testing.T) []paperRow {
	row := paperRow{param: "4 replicas, 12 fetches"}
	for _, strategy := range []func(*netsim.Network) gendoc.Strategy{
		func(*netsim.Network) gendoc.Strategy { return gendoc.First{} },
		func(*netsim.Network) gendoc.Strategy { return gendoc.NewRandom(42) },
		func(*netsim.Network) gendoc.Strategy { return gendoc.NewRoundRobin() },
		func(net *netsim.Network) gendoc.Strategy { return gendoc.Nearest{Net: net} },
	} {
		peers := []netsim.PeerID{"client", "rep0", "rep1", "rep2", "rep3"}
		net := netsim.New()
		netsim.RandomWAN(net, peers, 17, 5, 120, 100, 2000)
		sys := core.NewSystem(net)
		for _, p := range peers {
			sys.MustAddPeer(p)
		}
		for _, id := range peers[1:] {
			p, _ := sys.Peer(id)
			if err := p.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{
				Items: 100, PriceMax: 100, Seed: 9})); err != nil {
				t.Fatal(err)
			}
			sys.Generics.RegisterDoc("catalog", gendoc.DocReplica{Doc: "catalog", At: id})
		}
		sys.Generics.SetStrategy(strategy(net))
		totalMs := 0.0
		for i := 0; i < 12; i++ {
			res, err := sys.Eval("client", &core.Doc{Name: "catalog", At: core.AnyPeer})
			if err != nil {
				t.Fatal(err)
			}
			totalMs += res.VT
		}
		st := sys.Net.Stats()
		sys.Close()
		read := 0
		for _, id := range peers[1:] {
			if st.PerLink[id]["client"].Bytes > 0 {
				read++
			}
		}
		row.plans = append(row.plans, charge{st.Bytes, st.Messages, read, totalMs / 12})
	}
	return []paperRow{row}
}

// e9SoftwareDist is the software-distribution application of the
// companion report [4]: a 40-package corpus leaves an origin with a
// constrained uplink for n mirrors, pulled by every mirror or sent once
// down a binary dissemination tree of peer-to-peer sends. bytes is the
// origin's uplink, ms when the last mirror has its copy, rows how many
// mirrors got one.
func e9SoftwareDist(t *testing.T) []paperRow {
	var rows []paperRow
	for _, n := range []int{3, 7} {
		peers := []netsim.PeerID{"origin"}
		for i := 0; i < n; i++ {
			peers = append(peers, netsim.PeerID(fmt.Sprintf("m%d", i)))
		}
		build := func() *core.System {
			net := netsim.New()
			netsim.Uniform(net, peers, netsim.Link{LatencyMs: 8, BytesPerMs: 2000})
			for _, p := range peers[1:] {
				net.SetLink("origin", p, netsim.Link{LatencyMs: 8, BytesPerMs: 100})
			}
			sys := core.NewSystem(net)
			for _, p := range peers {
				sys.MustAddPeer(p)
			}
			origin, _ := sys.Peer("origin")
			if err := origin.InstallDocument("packages", workload.Packages(workload.DistSpec{
				Packages: 40, MaxDeps: 3, Seed: 19, DescWords: 6})); err != nil {
				t.Fatal(err)
			}
			return sys
		}
		originBytes := func(st netsim.Stats) int64 {
			var total int64
			for _, ls := range st.PerLink["origin"] {
				total += ls.Bytes
			}
			return total
		}
		row := paperRow{param: fmt.Sprintf("mirrors=%d", n)}

		pull := build()
		var pulled charge
		for _, m := range peers[1:] {
			res, err := pull.Eval(m, &core.Doc{Name: "packages", At: "origin"})
			if err != nil {
				t.Fatal(err)
			}
			pulled.rows += len(res.Forest)
			pulled.ms = max(pulled.ms, res.VT)
		}
		st := pull.Net.Stats()
		pulled.bytes, pulled.msgs = originBytes(st), st.Messages
		pull.Close()

		// Mirror i forwards to mirrors 2i and 2i+1 once its own copy has
		// arrived (the virtual clock threaded through EvalFrom).
		tree := build()
		arrival := make([]float64, n+1)
		send := func(from, to int) {
			res, err := tree.EvalFrom(peers[from], &core.Send{
				Dest:    core.DestDoc{Name: "packages", At: peers[to]},
				Payload: &core.Doc{Name: "packages", At: peers[from]},
			}, arrival[from])
			if err != nil {
				t.Fatal(err)
			}
			arrival[to] = res.VT
		}
		send(0, 1)
		for i := 1; i <= n; i++ {
			for _, child := range []int{2 * i, 2*i + 1} {
				if child <= n {
					send(i, child)
				}
			}
		}
		st = tree.Net.Stats()
		treed := charge{bytes: originBytes(st), msgs: st.Messages, ms: st.MaxVT}
		for i, p := range peers[1:] {
			treed.ms = max(treed.ms, arrival[i+1])
			if m, _ := tree.Peer(p); m.HasDocument("packages") {
				treed.rows++
			}
		}
		tree.Close()
		row.plans = append(row.plans, pulled, treed)
		rows = append(rows, row)
	}
	return rows
}
