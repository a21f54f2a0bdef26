package opt

import (
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/rewrite"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// TestCostCounters pins what one plan-cache miss costs on the perf
// ledger's shapes: plans explored and sub-plan estimates computed
// exactly, allocations as a ceiling, and the plan chosen. Keyed by
// serialized plan and priced from the root, the same misses explored 49
// and 81 plans and computed 197 and 315 estimates in 10,027 and 16,373
// allocations.
func TestCostCounters(t *testing.T) {
	want := map[string]struct {
		explored, priced, allocs int
		deriv                    string
	}{
		"plan_churn":    {16, 39, 1850, "pushSelection(11) @ /; delegate(10/14) @ /"},
		"view_subsumed": {9, 16, 950, "useView @ /"},
	}
	for _, s := range missShapes() {
		t.Run(s.name, func(t *testing.T) {
			w := want[s.name]
			sys, opts, e := s.setup(t)
			est := NewEstimator(sys)
			plan, explored, err := est.optimize("store", e, opts)
			if err != nil {
				t.Fatal(err)
			}
			if explored != w.explored || est.memo.priced != w.priced {
				t.Errorf("explored %d plans and computed %d estimates, want %d and %d",
					explored, est.memo.priced, w.explored, w.priced)
			}
			if got := strings.Join(plan.Derivation, "; "); got != w.deriv {
				t.Errorf("chose [%s], want [%s]", got, w.deriv)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, _, err := Optimize(sys, "store", e, opts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > float64(w.allocs) {
				t.Errorf("a miss allocates %.0f times, ceiling %d", allocs, w.allocs)
			}
		})
	}
}

// TestStructuralKey: expressions that serialize alike share a key, and
// a difference in any field that reaches the wire form separates them.
func TestStructuralKey(t *testing.T) {
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 10 return $i`)
	same := xquery.MustParse(q.String()) // another pointer, the same text
	other := xquery.MustParse(`for $i in doc("catalog")/item return $i`)
	ref := peer.NodeRef{Peer: "b", Node: 7}
	tree := func(s string) *core.Tree { return &core.Tree{Node: xmltree.MustParse(s), At: "a"} }
	doc := &core.Doc{Name: "catalog", At: "b"}
	exprs := []core.Expr{
		doc,
		&core.Doc{Name: "catalog", At: "c"},
		&core.Doc{Name: "catalog2", At: "b"},
		&core.Doc{Name: "1:c", At: ""},
		tree(`<x>1</x>`),
		tree(`<x>2</x>`),
		&core.Query{Q: q, At: "a"},
		&core.Query{Q: other, At: "a"},
		&core.Query{Q: q, At: "b"},
		&core.Query{Q: q, At: "a", Args: []core.Expr{doc}},
		&core.Query{Q: q, At: "a", Args: []core.Expr{doc, doc}},
		&core.Query{Q: q, At: "a", Args: []core.Expr{doc, doc}, ShareArgs: true},
		&core.QueryVal{Q: q, At: "a", Name: "s"},
		&core.QueryVal{Q: q, At: "a", Name: "t"},
		&core.Send{Dest: core.DestPeer{P: "b"}, Payload: doc},
		&core.Send{Dest: core.DestDoc{Name: "b", At: "b"}, Payload: doc},
		&core.Send{Dest: core.DestNodes{Refs: []peer.NodeRef{ref}}, Payload: doc},
		&core.Relay{Via: []netsim.PeerID{"c"}, Dest: core.DestPeer{P: "b"}, Payload: doc},
		&core.Relay{Via: []netsim.PeerID{"c", "d"}, Dest: core.DestPeer{P: "b"}, Payload: doc},
		&core.ServiceCall{Provider: "b", Service: "s"},
		&core.ServiceCall{Provider: "b", Service: "s", Params: []core.Expr{doc}},
		&core.ServiceCall{Provider: "b", Service: "s", Forward: []peer.NodeRef{ref}},
		&core.EvalAt{At: "b", E: &core.Query{Q: q, At: "b"}},
		&core.EvalAt{At: "c", E: &core.Query{Q: q, At: "b"}},
	}
	m := newMemo()
	byKey := map[string]int{}
	for i, e := range exprs {
		k := m.key(e)
		if j, dup := byKey[k]; dup {
			t.Errorf("%s and %s share the key %q", exprs[j], e, k)
		}
		byKey[k] = i
		if c := m.key(core.Clone(e)); c != k {
			t.Errorf("a clone of %s keys as %q, the original as %q", e, c, k)
		}
	}
	if a, b := m.key(&core.Query{Q: q, At: "a"}), m.key(&core.Query{Q: same, At: "a"}); a != b {
		t.Errorf("two parses of one query text key apart: %q, %q", a, b)
	}
}

// TestMemoAgreesWithFreshEstimates: every candidate of a four-step
// derivation from the optimizer tests' workload is priced the same by
// the one estimator a search shares — answering most sub-plans from
// memory — as by a fresh estimator given a deep copy, and the one
// estimator computes fewer than half the estimates of the fresh ones.
func TestMemoAgreesWithFreshEstimates(t *testing.T) {
	sys := buildSystem(t, 150)
	shared := NewEstimator(sys)
	ctx := &rewrite.Context{Sys: sys, At: "client"}
	frontier := []core.Expr{
		&core.Query{Q: xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 30 return <hit>{$i/name}</hit>`), At: "client"},
		&core.Query{Q: xquery.MustParse(`param $in; for $o in $in where $o/price < 50 return $o/name`), At: "client",
			Args: []core.Expr{&core.ServiceCall{Provider: "data", Service: "offers"}}},
		&core.Query{Q: xquery.MustParse(`param $a, $b; <cmp>{count($a/item), count($b/item)}</cmp>`), At: "client",
			Args: []core.Expr{&core.Doc{Name: "catalog", At: "data"}, &core.Doc{Name: "catalog", At: "data"}}},
	}
	checked, alone := 0, 0
	for depth := 0; depth < 4; depth++ {
		var next []core.Expr
		for _, e := range frontier {
			got, gotErr := shared.Estimate("client", e)
			fresh := NewEstimator(sys)
			want, wantErr := fresh.Estimate("client", core.Clone(e))
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: remembered %+v (%v), fresh %+v (%v)", e, got, gotErr, want, wantErr)
			}
			checked++
			alone += fresh.memo.priced
			for _, d := range rewrite.Alternatives(e, ctx, rewrite.DefaultRules()) {
				next = append(next, d.E)
			}
		}
		frontier = next
	}
	if checked < 100 || 2*shared.memo.priced > alone {
		t.Errorf("%d plans took %d estimates alone and %d together: the memo answered too little",
			checked, alone, shared.memo.priced)
	}
	t.Logf("%d plans took %d estimates alone and %d together", checked, alone, shared.memo.priced)
}

// TestSettle: a delegation to the site already evaluating it goes, at
// any depth, and nothing else changes — the input included.
func TestSettle(t *testing.T) {
	q := xquery.MustParse(`for $i in doc("catalog")/item return $i`)
	inner := &core.Query{Q: q, At: "b"}
	cases := []struct {
		in   core.Expr
		want string
	}{
		{&core.EvalAt{At: "a", E: inner}, inner.String()},
		{&core.EvalAt{At: "b", E: &core.EvalAt{At: "b", E: inner}}, (&core.EvalAt{At: "b", E: inner}).String()},
		{&core.EvalAt{At: "b", E: inner}, (&core.EvalAt{At: "b", E: inner}).String()},
		{&core.Query{Q: q, At: "a", Args: []core.Expr{&core.EvalAt{At: "a", E: inner}}},
			(&core.Query{Q: q, At: "a", Args: []core.Expr{inner}}).String()},
		{&core.EvalAt{At: "b", E: &core.Query{Q: q, At: "b", Args: []core.Expr{&core.EvalAt{At: "a", E: inner}}}},
			(&core.EvalAt{At: "b", E: &core.Query{Q: q, At: "b", Args: []core.Expr{&core.EvalAt{At: "a", E: inner}}}}).String()},
		{&core.Send{Dest: core.DestPeer{P: "c"}, Payload: &core.EvalAt{At: "a", E: inner}},
			(&core.Send{Dest: core.DestPeer{P: "c"}, Payload: inner}).String()},
	}
	for _, c := range cases {
		before := c.in.String()
		if got := settle(c.in, "a").String(); got != c.want {
			t.Errorf("settle(%s) = %s, want %s", before, got, c.want)
		}
		if after := c.in.String(); after != before {
			t.Errorf("settle wrote its input: %s became %s", before, after)
		}
	}
}
