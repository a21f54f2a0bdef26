package core

import (
	"testing"

	"axml/internal/netsim"
	"axml/internal/workload"
	"axml/internal/xquery"
)

// The delegated_hot shape of the perf ledger: a 200-item catalog at the
// data peer and a selection that returns about 60 whole items.
func benchSystem(b testing.TB) (*System, *Query) {
	b.Helper()
	sys := NewSystem(netsim.New())
	sys.MustAddPeer("client")
	data := sys.MustAddPeer("data")
	catalog := workload.Catalog(workload.CatalogSpec{Items: 200, PriceMax: 1000, DescWords: 10, Seed: 1})
	if err := data.InstallDocument("catalog", catalog); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 300 return $i`)
	return sys, &Query{Q: q, At: "data"}
}

func benchEval(b *testing.B, sys *System, at netsim.PeerID, e Expr) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Eval(at, e)
		if err != nil || len(res.Forest) == 0 {
			b.Fatalf("%d rows, %v", len(res.Forest), err)
		}
	}
}

// BenchmarkEvalLocal evaluates the plan where the data is.
func BenchmarkEvalLocal(b *testing.B) {
	sys, q := benchSystem(b)
	benchEval(b, sys, "data", q)
}

// TestEvalLocalAllocations pins BenchmarkEvalLocal's allocations per
// op: about 60 accepted items owned by the result forest, their scopes,
// and the run's fixed work; the 140 rejected items cost nothing.
func TestEvalLocalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	sys, q := benchSystem(t)
	allocs := testing.AllocsPerRun(20, func() {
		if res, err := sys.Eval("data", q); err != nil || len(res.Forest) == 0 {
			t.Fatalf("%d rows, %v", len(res.Forest), err)
		}
	})
	if allocs != 1_105 {
		t.Errorf("local eval allocates %v times per op, want 1,105", allocs)
	}
}

// BenchmarkEvalDelegated evaluates it from the client: the plan is
// serialized, shipped to data over the simulated network, evaluated
// there and its forest shipped back.
func BenchmarkEvalDelegated(b *testing.B) {
	sys, q := benchSystem(b)
	benchEval(b, sys, "client", &EvalAt{At: "data", E: q})
}

// TestDelegatedEvalAllocations pins BenchmarkEvalDelegated's
// allocations per op: the data peer writes each accepted item into the
// reply where it stands, and the client parses the reply into blocks.
// It was 1,157 while the data peer deep-copied every accepted item into
// an owned forest first, and 2,972 when that forest was also
// deep-copied into its envelope and parsed node by node.
func TestDelegatedEvalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	sys, q := benchSystem(t)
	e := &EvalAt{At: "data", E: q}
	allocs := testing.AllocsPerRun(20, func() {
		if res, err := sys.Eval("client", e); err != nil || len(res.Forest) == 0 {
			t.Fatalf("%d rows, %v", len(res.Forest), err)
		}
	})
	if allocs != 393 {
		t.Errorf("delegated eval allocates %v times per op, want 393", allocs)
	}
}

// BenchmarkExprSerialization round-trips a delegated plan through its
// XML form (§3.1): what every eval@p ships and parses.
func BenchmarkExprSerialization(b *testing.B) {
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 50 return $i/name`)
	e := &EvalAt{At: "data", E: &Query{Q: q, At: "data", Args: []Expr{
		&Doc{Name: "catalog", At: "data"},
	}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseExprBytes(SerializeExpr(e)); err != nil {
			b.Fatal(err)
		}
	}
}
