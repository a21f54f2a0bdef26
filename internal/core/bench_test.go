package core

import (
	"testing"

	"axml/internal/netsim"
	"axml/internal/workload"
	"axml/internal/xquery"
)

// The delegated_hot shape of the perf ledger: a 200-item catalog at the
// data peer and a selection that returns about 60 whole items.
func benchSystem(b *testing.B) (*System, *Query) {
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

// BenchmarkEvalDelegated evaluates it from the client: the plan is
// serialized, shipped to data over the simulated network, evaluated
// there and its forest shipped back.
func BenchmarkEvalDelegated(b *testing.B) {
	sys, q := benchSystem(b)
	benchEval(b, sys, "client", &EvalAt{At: "data", E: q})
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
