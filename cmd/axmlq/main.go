// Command axmlq is the client of cmd/axmlpeer: it runs statements and
// service calls against a remote peer and prints the result forest.
//
// Usage:
//
//	axmlq -addr localhost:7012 -query 'for $i in doc("catalog")/item return $i/name'
//	axmlq -addr localhost:7012 -query '…' -prepare 100     # one prepared statement, 100 runs
//	axmlq -addr localhost:7012 -timeout 2s -query '…'
//	axmlq -addr localhost:7012 -call bargains
//	axmlq -addr localhost:7012 -list
//	axmlq -addr localhost:7012 -placements
//	axmlq -addr localhost:7012 -query '…' -explain-analyze
//	axmlq -addr localhost:7012 -stats
//	axmlq -addr localhost:7012 \
//	      -view 'cheap=for $i in doc("catalog")/item where $i/price < 100 return $i@store'
//	axmlq -addr localhost:7012 -query 'delete doc("catalog")/item[price > 900]'
//	axmlq -addr localhost:7012 \
//	      -query 'replace doc("catalog")/item[name="x"] with <item><name>x</name><price>5</price></item>'
//
// -query takes any statement and runs it through the unified session
// API: results stream row by row (the QUERYX wire form) as the server's
// pull-based evaluator produces them, -timeout bounds the whole
// exchange via a context deadline, and -prepare N repeats a query N
// times through one prepared statement — the server optimizes once and
// answers the repeats from its plan cache, which the printed per-run
// timing makes visible. -first-row adds a timing line (or, with
// -prepare, a column) showing wire latency-to-first-row next to the
// total: on a server streaming incrementally the first number stays
// flat as results grow.
//
// -view materializes a view on the peer: name=query, optionally
// suffixed @peer to assert the placement (it must be the served peer —
// the wire endpoint is that peer's deployment face). Once defined,
// -query requests the view subsumes are answered from it.
//
// An update (`delete <path>`, `replace <path> with <xml>`) prints its
// one row, <x:ok n="K"/> with the count of touched nodes. It drives the
// peer's typed update stream, so materialized views over the touched
// documents retract or re-derive exactly the affected rows.
//
// -explain-analyze runs -query traced: the server records a span for
// every phase of the evaluation — parse, plan (cache hit/miss), each
// delegation hop with its per-link bytes, ships, service calls — and
// axmlq fetches the trace afterwards (the TRACE verb) and prints the
// span tree. -stats prints the server's unified metrics snapshot (the
// STATS verb): plan-cache counters, streaming gauges, network totals.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"axml/internal/obs"
	"axml/internal/session"
	"axml/internal/wire"
	"axml/internal/xmltree"
)

func main() {
	addr := flag.String("addr", "localhost:7012", "peer address")
	query := flag.String("query", "", "statement to run: a query, an update or a declaration")
	prepare := flag.Int("prepare", 0, "repeat -query N times through one prepared statement")
	timeout := flag.Duration("timeout", 0, "deadline for the whole request (0 = none)")
	call := flag.String("call", "", "service to call")
	params := flag.String("params", "", "XML parameter forest for -call")
	list := flag.Bool("list", false, "list remote documents, services and views")
	placements := flag.Bool("placements", false, "print the view-placement map and recent adaptive-placement decisions")
	firstRow := flag.Bool("first-row", false, "print first-row and total latency for -query")
	explain := flag.Bool("explain-analyze", false, "trace -query on the server and print the span tree")
	stats := flag.Bool("stats", false, "print the server's metrics snapshot")
	compact := flag.Bool("compact", false, "print results without indentation")
	var views []string
	flag.Func("view", "name=query[@peer] view to materialize (repeatable)", func(s string) error {
		views = append(views, s)
		return nil
	})
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	c, err := wire.Dial(*addr)
	if err != nil {
		log.Fatalf("axmlq: %v", err)
	}
	defer c.Close()

	for _, spec := range views {
		name, rest, ok := strings.Cut(spec, "=")
		if !ok || name == "" {
			log.Fatalf("axmlq: bad -view %q (want name=query[@peer])", spec)
		}
		src, placement := splitPlacement(rest)
		target := name
		if placement != "" {
			target = name + "@" + placement
		}
		if err := c.DefineView(ctx, target, src); err != nil {
			log.Fatalf("axmlq: defining view %q: %v", name, err)
		}
		fmt.Printf("defined view %q\n", name)
	}

	switch {
	case *stats:
		snap, err := c.Stats(ctx)
		if err != nil {
			log.Fatalf("axmlq: %v", err)
		}
		fmt.Print(obs.RenderSnapshot(snap))
	case *placements:
		lines, err := c.Placements(ctx)
		if err != nil {
			log.Fatalf("axmlq: %v", err)
		}
		if len(lines) == 0 {
			fmt.Println("no view placements")
		}
		for _, l := range lines {
			fmt.Println(l)
		}
	case *list:
		docs, services, err := c.List(ctx)
		if err != nil {
			log.Fatalf("axmlq: %v", err)
		}
		fmt.Println("documents:", strings.Join(docs, ", "))
		fmt.Println("services: ", strings.Join(services, ", "))
		vs, err := c.ListViews(ctx)
		if err != nil {
			log.Fatalf("axmlq: %v", err)
		}
		for _, v := range vs {
			fmt.Println("view:     ", v)
		}
	case *query != "" && *prepare > 0 && !*explain:
		runPrepared(ctx, c, *query, *prepare, *compact, *firstRow)
	case *query != "":
		var opts []session.Option
		id := fmt.Sprintf("axmlq-%d", time.Now().UnixNano())
		if *explain {
			opts = append(opts, session.WithTraceID(id))
		}
		start := time.Now()
		rows, err := c.Query(ctx, *query, opts...)
		if err != nil {
			log.Fatalf("axmlq: %v", err)
		}
		var ttfr time.Duration
		n := 0
		for rows.Next() {
			if n == 0 {
				ttfr = time.Since(start)
			}
			printNode(rows.Node(), *compact)
			n++
		}
		if err := rows.Err(); err != nil {
			log.Fatalf("axmlq: after %d row(s): %v", n, err)
		}
		_ = rows.Close()
		if *firstRow {
			// The server streams rows as its cursor yields them, so the
			// first-row column shows wire latency-to-first-row, not
			// total evaluation time.
			fmt.Printf("first row %.2fms, total %.2fms, %d row(s)\n",
				ms(ttfr), ms(time.Since(start)), n)
		}
		if *explain {
			spans, err := c.Trace(ctx, id)
			if err != nil {
				log.Fatalf("axmlq: fetching trace: %v", err)
			}
			fmt.Printf("\nEXPLAIN ANALYZE (%d span(s), %d row(s)):\n", len(spans), n)
			fmt.Print(obs.Render(spans))
		}
	case *call != "":
		var trees []*xmltree.Node
		if *params != "" {
			trees, err = xmltree.ParseFragment(*params)
			if err != nil {
				log.Fatalf("axmlq: bad -params: %v", err)
			}
		}
		out, err := c.Call(ctx, *call, trees...)
		if err != nil {
			log.Fatalf("axmlq: %v", err)
		}
		printForest(out, *compact)
	default:
		if len(views) == 0 {
			flag.Usage()
			os.Exit(2)
		}
	}
}

// runPrepared drives one prepared statement repeatedly: the server
// plans once, the repeats hit its plan cache. The last run's rows are
// printed; per-run latency shows the planning amortization, and
// -first-row adds the averaged time-to-first-row column.
func runPrepared(ctx context.Context, c *wire.Client, query string, n int, compact, firstRow bool) {
	stmt, err := c.Prepare(ctx, query)
	if err != nil {
		log.Fatalf("axmlq: prepare: %v", err)
	}
	defer stmt.Close()
	var first, rest, ttfrSum time.Duration
	var lastForest []*xmltree.Node
	for i := 0; i < n; i++ {
		start := time.Now()
		rows, err := stmt.Query(ctx)
		if err != nil {
			log.Fatalf("axmlq: run %d: %v", i+1, err)
		}
		var forest []*xmltree.Node
		for rows.Next() {
			if len(forest) == 0 {
				ttfrSum += time.Since(start)
			}
			forest = append(forest, rows.Node())
		}
		if err := rows.Err(); err != nil {
			log.Fatalf("axmlq: run %d: %v", i+1, err)
		}
		_ = rows.Close()
		d := time.Since(start)
		if i == 0 {
			first = d
		} else {
			rest += d
		}
		lastForest = forest
	}
	printForest(lastForest, compact)
	fmt.Printf("prepared statement: %d run(s), first %.2fms", n, ms(first))
	if firstRow {
		fmt.Printf(", first-row avg %.2fms", ms(ttfrSum)/float64(n))
	}
	if n > 1 {
		fmt.Printf(", rest avg %.2fms", ms(rest)/float64(n-1))
	}
	fmt.Println()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// splitPlacement separates a trailing "@peer" placement from a view
// query. The heuristic respects the query language: an '@' after '/'
// is an attribute step ($i/@id), so only a final "@word" not preceded
// by '/' counts as a placement.
func splitPlacement(s string) (query, placement string) {
	i := strings.LastIndexByte(s, '@')
	if i <= 0 || s[i-1] == '/' {
		return s, ""
	}
	suffix := s[i+1:]
	if suffix == "" || strings.ContainsAny(suffix, " \t/$<>=(){}[]\"'") {
		return s, ""
	}
	return s[:i], suffix
}

func printForest(out []*xmltree.Node, compact bool) {
	for _, n := range out {
		printNode(n, compact)
	}
}

func printNode(n *xmltree.Node, compact bool) {
	if compact {
		fmt.Println(xmltree.Serialize(n))
	} else {
		fmt.Print(xmltree.SerializeIndent(n))
	}
}
