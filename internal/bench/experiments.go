package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"axml/internal/axmldoc"
	"axml/internal/core"
	"axml/internal/gendoc"
	"axml/internal/netsim"
	"axml/internal/opt"
	"axml/internal/peer"
	"axml/internal/rewrite"
	"axml/internal/service"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// wanLink is the default cross-peer profile of the suite: 20 ms
// latency, 200 bytes/ms (≈1.6 Mbit/s) — a 2006-era WAN.
var wanLink = netsim.Link{LatencyMs: 20, BytesPerMs: 200}

// E1SelectionPushdown reproduces Example 1: a selective query over a
// remote catalog, naive definition-(7) shipping vs the (11)+(10)
// pushed plan, swept over selectivity.
func E1SelectionPushdown(items int, selectivities []float64) (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "Pushing selections (Example 1)",
		Anchor: "rules (11)+(10)",
		Header: []string{"sel", "naiveB", "pushB", "byteGain", "naiveMs", "pushMs", "msGain", "rows"},
		Notes:  "naive ships the whole catalog; pushed ships only matching items",
	}
	for _, sel := range selectivities {
		threshold := int(sel * 1000)
		qsrc := fmt.Sprintf(
			`for $i in doc("catalog")/item where $i/price < %d return <hit>{$i/name}</hit>`, threshold)
		mk := func(optimize bool) func() (*core.System, core.Expr, netsim.PeerID) {
			return func() (*core.System, core.Expr, netsim.PeerID) {
				sys := uniformSystem(wanLink, "client", "data")
				installCatalog(sys, "data", workload.CatalogSpec{
					Items: items, PriceMax: 1000, DescWords: 10, Seed: 7})
				q := xquery.MustParse(qsrc)
				var e core.Expr = &core.Query{Q: q, At: "client"}
				if optimize {
					dec, ok := xquery.Decompose(q)
					if !ok {
						panic("bench: E1 query not decomposable")
					}
					e = &core.Query{Q: dec.Local, At: "client", Args: []core.Expr{
						&core.EvalAt{At: "data", E: &core.Query{Q: dec.Remote, At: "data"}},
					}}
				}
				return sys, e, "client"
			}
		}
		naive, err := runPlan(mk(false))
		if err != nil {
			return nil, fmt.Errorf("E1 naive sel=%v: %w", sel, err)
		}
		pushed, err := runPlan(mk(true))
		if err != nil {
			return nil, fmt.Errorf("E1 pushed sel=%v: %w", sel, err)
		}
		if naive.Results != pushed.Results {
			return nil, fmt.Errorf("E1 sel=%v: result mismatch %d vs %d", sel, naive.Results, pushed.Results)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", sel),
			fmtBytes(naive.Bytes), fmtBytes(pushed.Bytes), factor(naive.Bytes, pushed.Bytes),
			fmtMs(naive.VT), fmtMs(pushed.VT), factorF(naive.VT, pushed.VT),
			fmt.Sprint(pushed.Results),
		})
	}
	return t, nil
}

// E2QueryDelegation measures rule (10): a query over local data on a
// loaded peer vs delegating to an idle peer, swept over the load
// factor and the data size.
func E2QueryDelegation(factors []float64, items int) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "Query delegation under load",
		Anchor: "rule (10)",
		Header: []string{"loadFactor", "localMs", "delegMs", "winner", "delegBytes"},
		Notes:  "delegation ships the data but computes on the idle peer; wins once local slowdown exceeds transfer cost",
	}
	qsrc := `for $i in doc("catalog")/item, $j in doc("catalog")/item
		where $i/price = $j/price and $i/@id != $j/@id
		return <dup>{$i/name}</dup>`
	for _, f := range factors {
		mk := func(delegate bool) func() (*core.System, core.Expr, netsim.PeerID) {
			return func() (*core.System, core.Expr, netsim.PeerID) {
				sys := uniformSystem(wanLink, "client", "idle")
				installCatalog(sys, "client", workload.CatalogSpec{
					Items: items, PriceMax: 100, Seed: 11})
				sys.SetComputeFactor("client", f)
				q := xquery.MustParse(qsrc)
				var e core.Expr = &core.Query{Q: q, At: "client"}
				if delegate {
					// The query ships inside the delegated plan (rule 10).
					e = &core.EvalAt{At: "idle", E: &core.Query{Q: q, At: "idle"}}
				}
				return sys, e, "client"
			}
		}
		local, err := runPlan(mk(false))
		if err != nil {
			return nil, err
		}
		deleg, err := runPlan(mk(true))
		if err != nil {
			return nil, err
		}
		winner := "local"
		if deleg.VT < local.VT {
			winner = "delegate"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", f),
			fmtMs(local.VT), fmtMs(deleg.VT), winner, fmtBytes(deleg.Bytes),
		})
	}
	return t, nil
}

// E3Rerouting measures rule (12) in both directions: direct transfer
// vs a relay through a hub, on a slow direct link and on a fast one.
func E3Rerouting(sizesKB []int) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "Transfer re-routing through an intermediary",
		Anchor: "rule (12)",
		Header: []string{"payloadKB", "linkCase", "directMs", "relayMs", "winner"},
		Notes:  "rule (12) is profitable in either direction depending on the link profile — \"not always true\" (§3.3)",
	}
	cases := []struct {
		name   string
		direct netsim.Link
	}{
		{"slowDirect", netsim.Link{LatencyMs: 150, BytesPerMs: 20}},
		{"fastDirect", netsim.Link{LatencyMs: 5, BytesPerMs: 2000}},
	}
	for _, kb := range sizesKB {
		payloadText := make([]byte, kb*1024)
		for i := range payloadText {
			payloadText[i] = 'a' + byte(i%26)
		}
		for _, c := range cases {
			mk := func(relay bool) func() (*core.System, core.Expr, netsim.PeerID) {
				return func() (*core.System, core.Expr, netsim.PeerID) {
					net := netsim.New()
					sys := core.NewSystem(net)
					sys.MustAddPeer("src")
					sys.MustAddPeer("dst")
					sys.MustAddPeer("hub")
					net.SetLinkBoth("src", "dst", c.direct)
					net.SetLinkBoth("src", "hub", netsim.Link{LatencyMs: 4, BytesPerMs: 2000})
					net.SetLinkBoth("hub", "dst", netsim.Link{LatencyMs: 4, BytesPerMs: 2000})
					tree := xmltree.E("blob", xmltree.T(string(payloadText)))
					var e core.Expr = &core.Send{Dest: core.DestPeer{P: "dst"},
						Payload: &core.Tree{Node: tree, At: "src"}}
					if relay {
						e = &core.Relay{Via: []netsim.PeerID{"hub"}, Dest: core.DestPeer{P: "dst"},
							Payload: &core.Tree{Node: tree, At: "src"}}
					}
					return sys, e, "src"
				}
			}
			direct, err := runPlan(mk(false))
			if err != nil {
				return nil, err
			}
			relayed, err := runPlan(mk(true))
			if err != nil {
				return nil, err
			}
			winner := "direct"
			if relayed.VT < direct.VT {
				winner = "relay"
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(kb), c.name, fmtMs(direct.VT), fmtMs(relayed.VT), winner,
			})
		}
	}
	return t, nil
}

// E4TransferSharing measures rule (13): a query consuming the same
// remote document twice, independent transfers vs shared.
func E4TransferSharing(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "Transfer sharing of duplicated inputs",
		Anchor: "rule (13)",
		Header: []string{"items", "unsharedB", "sharedB", "byteGain", "unsharedMs", "sharedMs"},
		Notes:  "sharing halves the duplicated transfer; \"may be worth it if t is large\"",
	}
	qsrc := `param $a, $b; <cmp>{count($a/item), count($b/item)}</cmp>`
	for _, items := range sizes {
		mk := func(share bool) func() (*core.System, core.Expr, netsim.PeerID) {
			return func() (*core.System, core.Expr, netsim.PeerID) {
				sys := uniformSystem(wanLink, "client", "data")
				installCatalog(sys, "data", workload.CatalogSpec{
					Items: items, PriceMax: 100, DescWords: 8, Seed: 3})
				q := xquery.MustParse(qsrc)
				e := &core.Query{Q: q, At: "client", ShareArgs: share, Args: []core.Expr{
					&core.Doc{Name: "catalog", At: "data"},
					&core.Doc{Name: "catalog", At: "data"},
				}}
				return sys, e, "client"
			}
		}
		unshared, err := runPlan(mk(false))
		if err != nil {
			return nil, err
		}
		shared, err := runPlan(mk(true))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(items),
			fmtBytes(unshared.Bytes), fmtBytes(shared.Bytes), factor(unshared.Bytes, shared.Bytes),
			fmtMs(unshared.VT), fmtMs(shared.VT),
		})
	}
	return t, nil
}

// E5PushOverCall measures rule (16): filtering the results of a
// declarative service call at the caller vs pushing the filter to the
// provider.
func E5PushOverCall(items int, selectivities []float64) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "Pushing queries over service calls",
		Anchor: "rule (16)",
		Header: []string{"sel", "fetchB", "pushB", "byteGain", "fetchMs", "pushMs"},
		Notes:  "the provider composes the caller's query with the (visible) service body",
	}
	for _, sel := range selectivities {
		threshold := int(sel * 1000)
		qsrc := fmt.Sprintf(
			`param $in; for $o in $in where $o/price < %d return $o/name`, threshold)
		mk := func(push bool) func() (*core.System, core.Expr, netsim.PeerID) {
			return func() (*core.System, core.Expr, netsim.PeerID) {
				sys := uniformSystem(wanLink, "client", "provider")
				installCatalog(sys, "provider", workload.CatalogSpec{
					Items: items, PriceMax: 1000, DescWords: 10, Seed: 5})
				p, _ := sys.Peer("provider")
				body := xquery.MustParse(
					`for $i in doc("catalog")/item return <offer>{$i/name, $i/price}</offer>`)
				if err := p.RegisterService(&service.Service{
					Name: "offers", Provider: "provider", Body: body}); err != nil {
					panic(err)
				}
				q := xquery.MustParse(qsrc)
				inner := &core.Query{Q: q, At: "client", Args: []core.Expr{
					&core.ServiceCall{Provider: "provider", Service: "offers"},
				}}
				var e core.Expr = inner
				if push {
					pushed := &core.Query{Q: q, At: "provider", Args: inner.Args}
					e = &core.EvalAt{At: "provider", E: pushed}
				}
				return sys, e, "client"
			}
		}
		fetch, err := runPlan(mk(false))
		if err != nil {
			return nil, err
		}
		push, err := runPlan(mk(true))
		if err != nil {
			return nil, err
		}
		if fetch.Results != push.Results {
			return nil, fmt.Errorf("E5 sel=%v: result mismatch %d vs %d", sel, fetch.Results, push.Results)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", sel),
			fmtBytes(fetch.Bytes), fmtBytes(push.Bytes), factor(fetch.Bytes, push.Bytes),
			fmtMs(fetch.VT), fmtMs(push.VT),
		})
	}
	return t, nil
}

// E6PickStrategies measures definition (9): pickDoc strategies over
// replicated documents on a heterogeneous WAN.
func E6PickStrategies(replicas, fetches int) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "Generic documents: pickDoc strategies",
		Anchor: "§2.3, definition (9)",
		Header: []string{"strategy", "meanMs", "totalBytes", "spread"},
		Notes:  "nearest minimizes latency; random/roundrobin spread load across replicas",
	}
	type strat struct {
		name string
		mk   func(sys *core.System) gendoc.Strategy
	}
	strategies := []strat{
		{"first", func(*core.System) gendoc.Strategy { return gendoc.First{} }},
		{"random", func(*core.System) gendoc.Strategy { return gendoc.NewRandom(42) }},
		{"roundrobin", func(*core.System) gendoc.Strategy { return gendoc.NewRoundRobin() }},
		{"nearest", func(sys *core.System) gendoc.Strategy { return gendoc.Nearest{Net: sys.Net} }},
	}
	for _, st := range strategies {
		peers := []netsim.PeerID{"client"}
		for i := 0; i < replicas; i++ {
			peers = append(peers, netsim.PeerID(fmt.Sprintf("rep%d", i)))
		}
		net := netsim.New()
		netsim.RandomWAN(net, peers, 17, 5, 120, 100, 2000)
		sys := core.NewSystem(net)
		for _, p := range peers {
			sys.MustAddPeer(p)
		}
		for i := 0; i < replicas; i++ {
			id := netsim.PeerID(fmt.Sprintf("rep%d", i))
			p, _ := sys.Peer(id)
			if err := p.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{
				Items: 100, PriceMax: 100, Seed: 9})); err != nil {
				return nil, err
			}
			sys.Generics.RegisterDoc("catalog", gendoc.DocReplica{Doc: "catalog", At: id})
		}
		sys.Generics.SetStrategy(st.mk(sys))
		totalVT := 0.0
		used := map[string]bool{}
		sys.SetTracing(true)
		for i := 0; i < fetches; i++ {
			res, err := sys.Eval("client", &core.Doc{Name: "catalog", At: core.AnyPeer})
			if err != nil {
				return nil, err
			}
			totalVT += res.VT
		}
		for _, line := range sys.Trace() {
			if strings.HasPrefix(line, "pickDoc") {
				used[line] = true
			}
		}
		stats := sys.Net.Stats()
		t.Rows = append(t.Rows, []string{
			st.name,
			fmtMs(totalVT / float64(fetches)),
			fmtBytes(stats.Bytes),
			fmt.Sprintf("%d replicas used", len(used)),
		})
	}
	return t, nil
}

// E7Continuous measures the continuous-query strategies: full
// recomputation + diff vs incremental per-source evaluation, as the
// stream grows.
func E7Continuous(baseItems, batches, perBatch int) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Continuous services: recompute vs incremental",
		Anchor: "§2.2, definition (2) on streams",
		Header: []string{"strategy", "batches", "emitted", "wallMs"},
		Notes:  "both emit identical deltas; incremental avoids re-scanning old items",
	}
	run := func(incremental bool) (int, time.Duration, error) {
		cat := workload.Catalog(workload.CatalogSpec{Items: baseItems, PriceMax: 100, Seed: 21})
		env := &xquery.Env{Resolve: func(string) (*xmltree.Node, error) { return cat, nil }}
		q := xquery.MustParse(
			`for $i in doc("c")/item where $i/price < 50 return <hit>{$i/name/text()}</hit>`)
		var deltaFn func() ([]*xmltree.Node, error)
		if incremental {
			inc, ok := xquery.NewDeltaFor(q, env)
			if !ok {
				return 0, 0, fmt.Errorf("E7: query not incrementalizable")
			}
			deltaFn = func() ([]*xmltree.Node, error) {
				ev, err := inc.DeltaEvents()
				if err != nil {
					return nil, err
				}
				return ev.AddedTrees(), nil
			}
		} else {
			deltaFn = xquery.NewRecompute(q, env).Delta
		}
		emitted := 0
		start := time.Now()
		if out, err := deltaFn(); err != nil {
			return 0, 0, err
		} else {
			emitted += len(out)
		}
		for b := 0; b < batches; b++ {
			for k := 0; k < perBatch; k++ {
				cat.AppendChild(xmltree.E("item",
					xmltree.A("id", fmt.Sprintf("new-%d-%d", b, k)),
					xmltree.E("name", xmltree.T(fmt.Sprintf("fresh-%d-%d", b, k))),
					xmltree.E("price", xmltree.T(fmt.Sprint((b*perBatch+k)%100))),
				))
			}
			out, err := deltaFn()
			if err != nil {
				return 0, 0, err
			}
			emitted += len(out)
		}
		return emitted, time.Since(start), nil
	}
	recomputeN, recomputeD, err := run(false)
	if err != nil {
		return nil, err
	}
	incN, incD, err := run(true)
	if err != nil {
		return nil, err
	}
	if recomputeN != incN {
		return nil, fmt.Errorf("E7: emission mismatch %d vs %d", recomputeN, incN)
	}
	t.Rows = append(t.Rows, []string{"recompute", fmt.Sprint(batches), fmt.Sprint(recomputeN),
		fmt.Sprintf("%.2f", float64(recomputeD.Microseconds())/1000)})
	t.Rows = append(t.Rows, []string{"incremental", fmt.Sprint(batches), fmt.Sprint(incN),
		fmt.Sprintf("%.2f", float64(incD.Microseconds())/1000)})
	return t, nil
}

// E8Optimizer runs the whole-algebra optimizer on a mixed workload and
// ablates the rule set.
func E8Optimizer(items int) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Cost-based optimization, full rule set and ablations",
		Anchor: "§3.3",
		Header: []string{"config", "bytes", "msgs", "timeMs", "vsNaive"},
		Notes:  "workload: selective remote query + filtered service call + duplicated-input comparison",
	}
	type cfg struct {
		name  string
		rules []rewrite.Rule
	}
	configs := []cfg{
		{"naive (no rules)", []rewrite.Rule{}},
		{"full rules", rewrite.DefaultRules()},
		{"no pushdown", without(rewrite.DefaultRules(), "pushSelection(11)")},
		{"no delegation", without(rewrite.DefaultRules(), "delegate(10/14)")},
		{"no pushOverCall", without(rewrite.DefaultRules(), "pushOverCall(16)")},
	}
	mkSys := func() *core.System {
		sys := uniformSystem(wanLink, "client", "data", "spare")
		installCatalog(sys, "data", workload.CatalogSpec{
			Items: items, PriceMax: 1000, DescWords: 10, Seed: 13})
		p, _ := sys.Peer("data")
		body := xquery.MustParse(
			`for $i in doc("catalog")/item return <offer>{$i/name, $i/price}</offer>`)
		if err := p.RegisterService(&service.Service{
			Name: "offers", Provider: "data", Body: body}); err != nil {
			panic(err)
		}
		return sys
	}
	mkWorkload := func() []core.Expr {
		q1 := xquery.MustParse(
			`for $i in doc("catalog")/item where $i/price < 30 return <hit>{$i/name}</hit>`)
		q2 := xquery.MustParse(
			`param $in; for $o in $in where $o/price < 50 return $o/name`)
		q3 := xquery.MustParse(
			`param $a, $b; <cmp>{count($a/item), count($b/item)}</cmp>`)
		return []core.Expr{
			&core.Query{Q: q1, At: "client"},
			&core.Query{Q: q2, At: "client", Args: []core.Expr{
				&core.ServiceCall{Provider: "data", Service: "offers"},
			}},
			&core.Query{Q: q3, At: "client", Args: []core.Expr{
				&core.Doc{Name: "catalog", At: "data"},
				&core.Doc{Name: "catalog", At: "data"},
			}},
		}
	}
	var naiveBytes int64
	for _, c := range configs {
		sys := mkSys()
		var totalVT float64
		for _, e := range mkWorkload() {
			plan := e
			if len(c.rules) > 0 {
				best, _, err := opt.Optimize(sys, "client", e, opt.Options{Rules: c.rules})
				if err != nil {
					return nil, err
				}
				plan = best.Expr
			}
			res, err := sys.Eval("client", plan)
			if err != nil {
				return nil, fmt.Errorf("E8 %s: %w", c.name, err)
			}
			totalVT += res.VT
		}
		st := sys.Net.Stats()
		sys.Close()
		if c.name == "naive (no rules)" {
			naiveBytes = st.Bytes
		}
		t.Rows = append(t.Rows, []string{
			c.name, fmtBytes(st.Bytes), fmt.Sprint(st.Messages), fmtMs(totalVT),
			factor(naiveBytes, st.Bytes),
		})
	}
	return t, nil
}

func without(rules []rewrite.Rule, name string) []rewrite.Rule {
	var out []rewrite.Rule
	for _, r := range rules {
		if r.Name() != name {
			out = append(out, r)
		}
	}
	return out
}

// E9SoftwareDist reproduces the software-distribution application of
// the companion report [4]: a package corpus disseminated from an
// origin with a constrained uplink to N mirrors, direct pulls vs a
// binary dissemination tree of peer-to-peer sends.
func E9SoftwareDist(mirrors []int, packages int) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "Software distribution: pull vs dissemination tree",
		Anchor: "§1 + companion report [4] (eDos)",
		Header: []string{"mirrors", "pullOriginB", "treeOriginB", "originGain", "pullMs", "treeMs"},
		Notes:  "origin uplink is the bottleneck; the tree sends the corpus once and mirrors propagate",
	}
	for _, n := range mirrors {
		build := func() (*core.System, []netsim.PeerID) {
			peers := []netsim.PeerID{"origin"}
			for i := 0; i < n; i++ {
				peers = append(peers, netsim.PeerID(fmt.Sprintf("m%d", i)))
			}
			net := netsim.New()
			netsim.Uniform(net, peers, netsim.Link{LatencyMs: 8, BytesPerMs: 2000})
			// Constrained origin uplink.
			for _, p := range peers[1:] {
				net.SetLink("origin", p, netsim.Link{LatencyMs: 8, BytesPerMs: 100})
			}
			sys := core.NewSystem(net)
			for _, p := range peers {
				sys.MustAddPeer(p)
			}
			origin, _ := sys.Peer("origin")
			if err := origin.InstallDocument("packages", workload.Packages(workload.DistSpec{
				Packages: packages, MaxDeps: 3, Seed: 19, DescWords: 6})); err != nil {
				panic(err)
			}
			return sys, peers
		}

		// Pull: every mirror fetches from the origin.
		pullSys, peers := build()
		var pullVT float64
		for _, m := range peers[1:] {
			res, err := pullSys.Eval(m, &core.Doc{Name: "packages", At: "origin"})
			if err != nil {
				return nil, err
			}
			if res.VT > pullVT {
				pullVT = res.VT
			}
		}
		pullStats := pullSys.Net.Stats()
		pullOrigin := linkBytesFrom(pullStats, "origin")
		pullSys.Close()

		// Tree: origin installs at m0; each mirror forwards to its two
		// children in a binary tree. A child transfer starts only once
		// the parent has its copy (VT threaded via EvalFrom).
		treeSys, peers2 := build()
		var treeVT float64
		arrival := make([]float64, n+1) // arrival[i] = VT mirror i has the corpus
		installAt := func(from, to netsim.PeerID, startVT float64) (float64, error) {
			res, err := treeSys.EvalFrom(from, &core.Send{
				Dest:    core.DestDoc{Name: "packages", At: to},
				Payload: &core.Doc{Name: "packages", At: from},
			}, startVT)
			if err != nil {
				return 0, err
			}
			return res.VT, nil
		}
		// Breadth-first schedule over the binary tree rooted at m0.
		if n > 0 {
			vt0, err := installAt("origin", peers2[1], 0)
			if err != nil {
				return nil, err
			}
			arrival[1] = vt0
			treeVT = vt0
			for i := 1; i <= n; i++ {
				parent := peers2[i]
				for _, childIdx := range []int{2 * i, 2*i + 1} {
					if childIdx > n {
						continue
					}
					vt, err := installAt(parent, peers2[childIdx], arrival[i])
					if err != nil {
						return nil, err
					}
					arrival[childIdx] = vt
					if vt > treeVT {
						treeVT = vt
					}
				}
			}
		}
		treeStats := treeSys.Net.Stats()
		treeOrigin := linkBytesFrom(treeStats, "origin")
		if treeStats.MaxVT > treeVT {
			treeVT = treeStats.MaxVT
		}
		treeSys.Close()

		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmtBytes(pullOrigin), fmtBytes(treeOrigin), factor(pullOrigin, treeOrigin),
			fmtMs(pullVT), fmtMs(treeVT),
		})
	}
	return t, nil
}

func linkBytesFrom(st netsim.Stats, from netsim.PeerID) int64 {
	var total int64
	for _, ls := range st.PerLink[from] {
		total += ls.Bytes
	}
	return total
}

// E10Activation (bonus table): eager vs lazy document activation when
// only a fraction of embedded calls is relevant to the query.
func E10Activation(calls int) (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "Eager vs lazy service-call activation",
		Anchor: "§2.2 activation modes, [2]",
		Header: []string{"mode", "callsActivated", "bytes", "resultRows"},
		Notes:  "lazy defers activation to query time; here the query needs every call, so lazy matches eager cost — the saving appears when documents are browsed without queries",
	}
	build := func() (*core.System, *axmldoc.Activator, *peer.Peer) {
		sys := uniformSystem(wanLink, "host", "data")
		installCatalog(sys, "data", workload.CatalogSpec{Items: 60, PriceMax: 100, Seed: 23})
		data, _ := sys.Peer("data")
		body := xquery.MustParse(
			`for $i in doc("catalog")/item where $i/price < 50 return <offer>{$i/name/text()}</offer>`)
		if err := data.RegisterService(&service.Service{
			Name: "cheap", Provider: "data", Body: body}); err != nil {
			panic(err)
		}
		host, _ := sys.Peer("host")
		page := xmltree.NewElement("page")
		for i := 0; i < calls; i++ {
			page.AppendChild(xmltree.MustParse(`<sc provider="data" service="cheap"/>`))
		}
		if err := host.InstallDocument("page", page); err != nil {
			panic(err)
		}
		return sys, axmldoc.New(sys, host), host
	}

	// Eager: activate at install time, then query.
	sysE, actE, _ := build()
	nE, err := actE.ActivateDocument("page")
	if err != nil {
		return nil, err
	}
	q := xquery.MustParse(`for $o in doc("page")/offer return $o`)
	hostE, _ := sysE.Peer("host")
	outE, err := hostE.RunQuery(q)
	if err != nil {
		return nil, err
	}
	bytesE := sysE.Net.Stats().Bytes
	sysE.Close()
	t.Rows = append(t.Rows, []string{"eager", fmt.Sprint(nE), fmtBytes(bytesE), fmt.Sprint(len(outE))})

	// Lazy: activation happens inside LazyQuery.
	sysL, actL, _ := build()
	outL, err := actL.LazyQuery("page", q, 3)
	if err != nil {
		return nil, err
	}
	bytesL := sysL.Net.Stats().Bytes
	sysL.Close()
	t.Rows = append(t.Rows, []string{"lazy", fmt.Sprint(calls), fmtBytes(bytesL), fmt.Sprint(len(outL))})
	if len(outE) != len(outL) {
		return nil, fmt.Errorf("E10: result mismatch %d vs %d", len(outE), len(outL))
	}
	return t, nil
}

// E11Views measures the materialized-view subsystem on a subscription
// workload: N clients re-issue a selective query as the base document
// grows round by round. Without views every round ships (at least) the
// matching data from the base peer to every client; with views the
// matching items ship once per placement as incremental refresh
// deltas, and client queries are rewritten to read the nearest view.
// Configs sweep the number of view placements K (0 = no views).
func E11Views(clients, items, rounds, perRound int) (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "Materialized views: view-accelerated subscription workload",
		Anchor: "internal/view (ViP2P-style views)",
		Header: []string{"config", "bytes", "msgs", "meanMs", "hits"},
		Notes:  "K=N places a view at every client: queries run locally and only refresh deltas travel",
	}
	qsrc := `for $i in doc("catalog")/item where $i/price < 100 return <hit>{$i/name}</hit>`
	vsrc := `for $i in doc("catalog")/item where $i/price < 100 return $i`

	run := func(nViews int) (Measurement, error) {
		peers := []netsim.PeerID{"data"}
		for i := 0; i < clients; i++ {
			peers = append(peers, netsim.PeerID(fmt.Sprintf("client%d", i)))
		}
		sys := uniformSystem(wanLink, peers...)
		defer sys.Close()
		installCatalog(sys, "data", workload.CatalogSpec{
			Items: items, PriceMax: 1000, DescWords: 4, Seed: 31})
		mgr := view.NewManager(sys)
		defer mgr.Close()
		// The workload re-optimizes every query; a tighter search keeps
		// the experiment fast without changing who wins.
		opts := opt.Options{MaxPlans: 128}
		for v := 0; v < nViews && v < clients; v++ {
			if err := mgr.Define("cheap", vsrc, peers[1+v]); err != nil {
				return Measurement{}, err
			}
			opts.ExtraRules = []rewrite.Rule{mgr.Rule()}
		}
		q := xquery.MustParse(qsrc)
		data, _ := sys.Peer("data")
		catalog, _ := data.Document("catalog")
		hits, queries, totalVT := 0, 0, 0.0
		for r := 0; r < rounds; r++ {
			for k := 0; k < perRound; k++ {
				n := r*perRound + k
				if err := data.AddChild(catalog.Root.ID, xmltree.E("item",
					xmltree.A("id", fmt.Sprintf("r%d", n)),
					xmltree.E("name", xmltree.T(fmt.Sprintf("fresh-%d", n))),
					xmltree.E("price", xmltree.T(fmt.Sprint(n*37%1000)))),
				); err != nil {
					return Measurement{}, err
				}
			}
			if nViews > 0 {
				if _, err := mgr.RefreshAll(); err != nil {
					return Measurement{}, err
				}
			}
			for _, c := range peers[1:] {
				e := &core.Query{Q: q, At: c}
				plan, _, err := opt.Optimize(sys, c, e, opts)
				if err != nil {
					return Measurement{}, err
				}
				res, err := sys.Eval(c, plan.Expr)
				if err != nil {
					return Measurement{}, err
				}
				hits += len(res.Forest)
				totalVT += res.VT
				queries++
			}
		}
		st := sys.Net.Stats()
		return Measurement{
			Bytes:    st.Bytes,
			Messages: st.Messages,
			VT:       totalVT / float64(queries),
			Results:  hits,
		}, nil
	}

	configs := []struct {
		name   string
		nViews int
	}{
		{"no-view", 0},
		{"views K=1", 1},
		{fmt.Sprintf("views K=%d", clients), clients},
	}
	var baseline Measurement
	for i, c := range configs {
		m, err := run(c.nViews)
		if err != nil {
			return nil, fmt.Errorf("E11 %s: %w", c.name, err)
		}
		if i == 0 {
			baseline = m
		} else if m.Results != baseline.Results {
			return nil, fmt.Errorf("E11 %s: result mismatch %d vs %d", c.name, m.Results, baseline.Results)
		}
		t.Rows = append(t.Rows, []string{
			c.name, fmtBytes(m.Bytes), fmt.Sprint(m.Messages), fmtMs(m.VT), fmt.Sprint(m.Results),
		})
	}
	return t, nil
}

// E12ChurnMaintenance measures view maintenance on a non-monotone
// stream: each round inserts fresh items, deletes ~10% of the live
// ones and updates ~10% in place, then refreshes a selection view
// placed across the WAN. Delta provenance (xquery.DeltaEvents +
// x:retract tombstones) ships only the affected rows; the baseline
// re-materializes the full view every round (Manager.RefreshFull).
// Both runs end with a convergence check against a direct evaluation
// of the view query at the base.
func E12ChurnMaintenance(items, rounds, perRound int) (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "View maintenance under churn: delta provenance vs full refresh",
		Anchor: "internal/view + xquery.DeltaEvents (node-id lineage)",
		Header: []string{"config", "bytes", "msgs", "meanMs", "rows"},
		Notes:  "per round: inserts + ~10% deletes + ~10% in-place updates; meanMs is wall-clock per refresh",
	}
	vsrc := `for $i in doc("catalog")/item where $i/price < 500 return $i`

	run := func(full bool) (Measurement, error) {
		sys := uniformSystem(wanLink, "data", "client")
		defer sys.Close()
		installCatalog(sys, "data", workload.CatalogSpec{
			Items: items, PriceMax: 1000, DescWords: 4, Seed: 31})
		mgr := view.NewManager(sys)
		defer mgr.Close()
		if err := mgr.Define("cheap", vsrc, "client"); err != nil {
			return Measurement{}, err
		}
		data, _ := sys.Peer("data")
		catalog, _ := data.Document("catalog")
		var live []xmltree.NodeID
		for _, it := range catalog.Root.ChildElementsByLabel("item") {
			live = append(live, it.ID)
		}
		newItem := func(n int) *xmltree.Node {
			return xmltree.E("item",
				xmltree.A("id", fmt.Sprintf("c%d", n)),
				xmltree.E("name", xmltree.T(fmt.Sprintf("churn-%d", n))),
				xmltree.E("price", xmltree.T(fmt.Sprint(n*37%1000))))
		}
		rng := rand.New(rand.NewSource(97))
		base := sys.Net.Stats() // count maintenance traffic only
		maintMs, refreshes, serial := 0.0, 0, items
		for r := 0; r < rounds; r++ {
			for k := 0; k < perRound; k++ {
				item := newItem(serial)
				serial++
				if err := data.AddChild(catalog.Root.ID, item); err != nil {
					return Measurement{}, err
				}
				live = append(live, item.ID)
			}
			churn := len(live) / 10
			for k := 0; k < churn && len(live) > 1; k++ {
				i := rng.Intn(len(live))
				if rng.Intn(2) == 0 {
					if err := data.RemoveChildByID(catalog.Root.ID, live[i]); err != nil {
						return Measurement{}, err
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					repl := newItem(serial)
					serial++
					if err := data.ReplaceChildByID(catalog.Root.ID, live[i], repl); err != nil {
						return Measurement{}, err
					}
					live[i] = repl.ID
				}
			}
			start := time.Now()
			var err error
			if full {
				_, err = mgr.RefreshFull("cheap")
			} else {
				_, err = mgr.Refresh("cheap")
			}
			if err != nil {
				return Measurement{}, err
			}
			maintMs += float64(time.Since(start).Microseconds()) / 1000
			refreshes++
		}
		client, _ := sys.Peer("client")
		vdoc, ok := client.Document(view.DocPrefix + "cheap")
		if !ok {
			return Measurement{}, fmt.Errorf("view document missing")
		}
		truth, err := data.RunQuery(xquery.MustParse(vsrc))
		if err != nil {
			return Measurement{}, err
		}
		if !sameForestMultiset(vdoc.Root.Children, truth) {
			return Measurement{}, fmt.Errorf("view diverged from ground truth (%d rows vs %d)",
				len(vdoc.Root.Children), len(truth))
		}
		st := sys.Net.Stats()
		return Measurement{
			Bytes:    st.Bytes - base.Bytes,
			Messages: st.Messages - base.Messages,
			VT:       maintMs / float64(refreshes),
			Results:  len(vdoc.Root.Children),
		}, nil
	}

	fullM, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("E12 full-refresh: %w", err)
	}
	incM, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("E12 incremental: %w", err)
	}
	if fullM.Results != incM.Results {
		return nil, fmt.Errorf("E12: row mismatch %d vs %d", fullM.Results, incM.Results)
	}
	t.Rows = append(t.Rows,
		[]string{"full-refresh", fmtBytes(fullM.Bytes), fmt.Sprint(fullM.Messages),
			fmtMs(fullM.VT), fmt.Sprint(fullM.Results)},
		[]string{"incremental", fmtBytes(incM.Bytes), fmt.Sprint(incM.Messages),
			fmtMs(incM.VT), fmt.Sprint(incM.Results)},
		[]string{"gain", factor(fullM.Bytes, incM.Bytes), factor(fullM.Messages, incM.Messages),
			factorF(fullM.VT, incM.VT), ""})
	return t, nil
}

// E13SessionPlanCache measures the unified session API's plan cache on
// a repeated-query workload: a client session re-issues `distinct`
// query shapes `repeats` times each (round-robin) against a remote
// catalog. optimize-per-query runs the full plan search on every call
// (WithNoPlanCache — the old ParseQuery→Optimize→Eval flow); plan-cache
// is the session default (first sight of a shape optimizes, repeats
// reuse the cached plan); prepared pins each shape in a Stmt. All
// modes evaluate the same optimized plans, so result counts and wire
// traffic agree — the delta is pure planning work, reported as
// wall-clock per query alongside the cache hit rate.
func E13SessionPlanCache(items, distinct, repeats int) (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "Session plan cache: repeated queries, optimize once",
		Anchor: "internal/session (unified session API)",
		Header: []string{"mode", "queries", "optRuns", "hitRate", "totalMs", "msPerQuery", "rows"},
		Notes:  "same plans execute in every mode; the delta is optimizer searches skipped via the plan cache",
	}
	shapes := make([]string, distinct)
	for i := range shapes {
		shapes[i] = fmt.Sprintf(
			`for $i in doc("catalog")/item where $i/price < %d return <hit>{$i/name}</hit>`,
			50+i*40)
	}

	run := func(mode string) (Measurement, float64, session.Stats, error) {
		sys := uniformSystem(wanLink, "client", "data")
		defer sys.Close()
		installCatalog(sys, "data", workload.CatalogSpec{
			Items: items, PriceMax: 1000, DescWords: 4, Seed: 13})
		views := view.NewManager(sys)
		defer views.Close()
		sess, err := session.NewLocal(sys, views, "client")
		if err != nil {
			return Measurement{}, 0, session.Stats{}, err
		}
		var stmts []*session.Stmt
		ctx := context.Background()
		if mode == "prepared" {
			for _, src := range shapes {
				stmt, err := sess.Prepare(ctx, src)
				if err != nil {
					return Measurement{}, 0, session.Stats{}, err
				}
				stmts = append(stmts, stmt)
			}
		}
		rows := 0
		start := time.Now()
		for r := 0; r < repeats; r++ {
			for i, src := range shapes {
				var out *session.Rows
				var err error
				switch mode {
				case "optimize-per-query":
					out, err = sess.Query(ctx, src, session.WithNoPlanCache())
				case "prepared":
					out, err = stmts[i].Query(ctx)
				default: // plan-cache
					out, err = sess.Query(ctx, src)
				}
				if err != nil {
					return Measurement{}, 0, session.Stats{}, err
				}
				forest, err := out.Collect()
				if err != nil {
					return Measurement{}, 0, session.Stats{}, err
				}
				rows += len(forest)
			}
		}
		elapsed := float64(time.Since(start)) / float64(time.Millisecond)
		st := sys.Net.Stats()
		return Measurement{Bytes: st.Bytes, Messages: st.Messages, Results: rows},
			elapsed, sess.Stats(), nil
	}

	queries := distinct * repeats
	modes := []string{"optimize-per-query", "plan-cache", "prepared"}
	var baseline Measurement
	var baseMs float64
	for i, mode := range modes {
		m, elapsed, stats, err := run(mode)
		if err != nil {
			return nil, fmt.Errorf("E13 %s: %w", mode, err)
		}
		if i == 0 {
			baseline, baseMs = m, elapsed
		} else if m.Results != baseline.Results {
			return nil, fmt.Errorf("E13 %s: result mismatch %d vs %d", mode, m.Results, baseline.Results)
		}
		t.Rows = append(t.Rows, []string{
			mode, fmt.Sprint(queries),
			fmt.Sprint(stats.Misses),
			fmt.Sprintf("%.0f%%", stats.HitRate()*100),
			fmtMs(elapsed), fmtMs(elapsed / float64(queries)),
			fmt.Sprint(m.Results),
		})
		if i == len(modes)-1 {
			t.Rows = append(t.Rows, []string{
				"gain (vs per-query)", "", "", "", factorF(baseMs, elapsed), "", "",
			})
		}
	}
	return t, nil
}

// StreamingPoint is one measured size of E14: the pull-based cursor's
// time-to-first-row against the time to drain the same cursor — what
// the first row costs any evaluator that materializes before it
// streams. cmd/axmlbench records these in BENCH_*.json and CI gates on
// the largest size's FirstRowGain.
type StreamingPoint struct {
	Size             int     `json:"size"`
	Rows             int     `json:"rows"`
	CursorFirstRowMs float64 `json:"cursorFirstRowMs"`
	CursorTotalMs    float64 `json:"cursorTotalMs"`
	FirstRowGain     float64 `json:"firstRowGain"`
	CursorRowsPerSec float64 `json:"cursorRowsPerSec"`
}

// E14Streaming measures the pull-based evaluator: time-to-first-row,
// time to drain and rows/sec at several result sizes, over a session
// on the hosting peer (plan warmed, so the numbers isolate evaluation,
// not optimizer search). Drain time grows with the result size; the
// first row's stays O(source scan + one row), so their ratio
// (FirstRowGain) must grow too — it falls to 1 the moment anything on
// the path materializes the result before handing out rows.
func E14Streaming(sizes []int) ([]StreamingPoint, *Table, error) {
	t := &Table{
		ID:     "E14",
		Title:  "Streaming evaluation: time-to-first-row vs time to drain",
		Anchor: "internal/xquery cursor (pull-based evaluator)",
		Header: []string{"items", "rows", "firstRowMs", "drainMs", "firstRowGain", "rows/s"},
		Notes:  "first row leaves while evaluation continues; gain = drain / first row, 1x would mean materialize-then-stream",
	}
	const q = `for $i in doc("catalog")/item where $i/price < 900 return <row>{$i/name}{$i/price}</row>`
	var points []StreamingPoint
	for _, size := range sizes {
		pt, err := e14Point(q, size)
		if err != nil {
			return nil, nil, fmt.Errorf("E14 size %d: %w", size, err)
		}
		points = append(points, pt)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pt.Size), fmt.Sprint(pt.Rows),
			fmtMs(pt.CursorFirstRowMs), fmtMs(pt.CursorTotalMs),
			fmt.Sprintf("%.1fx", pt.FirstRowGain),
			fmt.Sprintf("%.0f", pt.CursorRowsPerSec),
		})
	}
	return points, t, nil
}

// e14Point measures one catalog size: a warm-up run (so no measured
// run pays the optimizer search in its first-row time), then the best
// of three (scheduler noise).
func e14Point(q string, size int) (StreamingPoint, error) {
	pt := StreamingPoint{Size: size}
	sys := uniformSystem(wanLink, "host")
	defer sys.Close()
	installCatalog(sys, "host", workload.CatalogSpec{
		Items: size, PriceMax: 1000, DescWords: 4, Seed: 41})
	views := view.NewManager(sys)
	defer views.Close()
	sess, err := session.NewLocal(sys, views, "host")
	if err != nil {
		return pt, err
	}
	for run := 0; run < 4; run++ {
		start := time.Now()
		rows, err := sess.Query(context.Background(), q)
		if err != nil {
			return pt, err
		}
		var first float64
		n := 0
		for rows.Next() {
			if n == 0 {
				first = float64(time.Since(start)) / float64(time.Millisecond)
			}
			n++
		}
		total := float64(time.Since(start)) / float64(time.Millisecond)
		err = rows.Err()
		if cerr := rows.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return pt, err
		}
		if run == 0 {
			continue // warm-up
		}
		pt.Rows = n
		if run == 1 || first < pt.CursorFirstRowMs {
			pt.CursorFirstRowMs = first
		}
		if run == 1 || total < pt.CursorTotalMs {
			pt.CursorTotalMs = total
		}
	}
	if pt.CursorFirstRowMs > 0 {
		pt.FirstRowGain = pt.CursorTotalMs / pt.CursorFirstRowMs
	}
	if pt.CursorTotalMs > 0 {
		pt.CursorRowsPerSec = float64(pt.Rows) / (pt.CursorTotalMs / 1000)
	}
	return pt, nil
}

// sameForestMultiset compares two forests by canonical hash, ignoring
// order and node identity.
func sameForestMultiset(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	counts := map[xmltree.Digest]int{}
	for _, n := range a {
		counts[xmltree.Hash(n)]++
	}
	for _, n := range b {
		counts[xmltree.Hash(n)]--
	}
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

// DefaultStreamingSizes are E14's full-suite result sizes; QuickStreamingSizes
// the bench-smoke (CI) ones. The experiment registry (which experiment
// runs with which parameters, full and -quick) lives in
// cmd/axmlbench/main.go — the suite's single entry point.
var (
	DefaultStreamingSizes = []int{1000, 8000, 30000}
	QuickStreamingSizes   = []int{500, 4000}
)
