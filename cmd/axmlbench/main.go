// Command axmlbench runs the experiment suite (E1–E16) and prints the
// tables recorded in EXPERIMENTS.md. E11 measures the materialized-
// view subsystem (internal/view) on a subscription workload; E12
// measures provenance-based view maintenance against full refresh on
// a churn workload with deletions and in-place updates; E13 measures
// the session API's plan cache on a repeated-query workload
// (optimize-once vs optimize-per-query); E14 measures the pull-based
// streaming evaluator's time-to-first-row against the time to drain
// the same cursor; E15 measures adaptive view placement against a
// static deployment on a skewed multi-peer subscription workload;
// E16 measures concurrent serving — snapshot-pinned readers against a
// store-wide-locked baseline under a continuously-committing writer;
// E17 (behind -tcp) measures the federated control plane in wall-clock
// time over real axmlpeer processes — a coordinated deployment against
// a static one on a skewed query stream.
//
// Usage:
//
//	axmlbench [-only E1,E5] [-quick] [-tcp] [-json out.json] [-gate streaming,placement,concurrency,federation]
//
// -only restricts the run to a comma-separated list of experiment IDs;
// -quick shrinks the workloads for a fast smoke run. -json writes the
// tables as a machine-readable file — CI uploads it as the
// BENCH_ci.json trajectory artifact on every run. Every experiment
// contributes numeric trajectory points (Table.Points): E14/E15 emit
// headline summaries (plus their raw streaming/placement records),
// the others derive points from their numeric table cells, so the
// file accumulates a plottable perf history across commits. -gate takes a comma-separated list of
// acceptance gates to enforce: "streaming" exits non-zero unless E14's
// first row arrives in at most half the time it takes to drain the
// cursor at the largest measured size; "placement" exits non-zero unless E15's
// adaptive mode beats the static deployment on both total bytes
// shipped and median query latency while converging to a stable
// placement; "concurrency" exits non-zero unless E16's snapshot
// readers beat the locked baseline at the largest reader count and
// their aggregate throughput scales with the reader count;
// "federation" (requires -tcp) exits non-zero unless E17 actuated at
// least one migrate/replicate over real TCP, converged, and beat the
// static deployment on measured wall-clock median latency. CI runs
// them all, so a regression in any loop fails the build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"axml/internal/bench"
)

// experiment is one registry entry; run receives the -quick flag.
type experiment struct {
	id  string
	run func(quick bool) (*bench.Table, error)
}

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. E1,E5)")
	quick := flag.Bool("quick", false, "shrink workloads for a fast run")
	jsonPath := flag.String("json", "", "write results as JSON to this file")
	tcp := flag.Bool("tcp", false, "include the wall-clock federation experiment (E17): real axmlpeer processes over TCP")
	gate := flag.String("gate", "", "comma-separated acceptance gates to enforce (streaming, placement, concurrency, federation)")
	flag.Parse()
	gates := map[string]bool{}
	for _, g := range strings.Split(*gate, ",") {
		if g = strings.TrimSpace(g); g == "" {
			continue
		}
		if g != "streaming" && g != "placement" && g != "concurrency" && g != "federation" {
			// Rejected up front: an unknown gate must not burn a full
			// suite run before failing.
			fmt.Fprintf(os.Stderr, "axmlbench: unknown gate %q\n", g)
			os.Exit(2)
		}
		gates[g] = true
	}
	if gates["federation"] && !*tcp {
		fmt.Fprintln(os.Stderr, "axmlbench: the federation gate requires -tcp (E17 spawns real processes)")
		os.Exit(2)
	}

	var streaming []bench.StreamingPoint
	var placementPt *bench.PlacementPoint
	var concurrency []bench.ConcurrencyPoint
	var federationPt *bench.FederationPoint
	registry := []experiment{
		{"E1", func(q bool) (*bench.Table, error) {
			if q {
				return bench.E1SelectionPushdown(100, []float64{0.01, 0.2})
			}
			return bench.E1SelectionPushdown(1000, []float64{0.001, 0.01, 0.05, 0.2, 0.5})
		}},
		{"E2", func(q bool) (*bench.Table, error) {
			if q {
				return bench.E2QueryDelegation([]float64{1, 8}, 40)
			}
			return bench.E2QueryDelegation([]float64{1, 8, 32, 128}, 150)
		}},
		{"E3", func(q bool) (*bench.Table, error) {
			if q {
				return bench.E3Rerouting([]int{1, 8})
			}
			return bench.E3Rerouting([]int{1, 8, 64})
		}},
		{"E4", func(q bool) (*bench.Table, error) {
			if q {
				return bench.E4TransferSharing([]int{50, 200})
			}
			return bench.E4TransferSharing([]int{50, 500, 2000})
		}},
		{"E5", func(q bool) (*bench.Table, error) {
			if q {
				return bench.E5PushOverCall(100, []float64{0.1})
			}
			return bench.E5PushOverCall(1000, []float64{0.01, 0.1, 0.5})
		}},
		{"E6", func(q bool) (*bench.Table, error) {
			if q {
				return bench.E6PickStrategies(3, 10)
			}
			return bench.E6PickStrategies(5, 40)
		}},
		{"E7", func(q bool) (*bench.Table, error) {
			if q {
				return bench.E7Continuous(200, 5, 5)
			}
			return bench.E7Continuous(2000, 20, 10)
		}},
		{"E8", func(q bool) (*bench.Table, error) {
			if q {
				return bench.E8Optimizer(80)
			}
			return bench.E8Optimizer(600)
		}},
		{"E9", func(q bool) (*bench.Table, error) {
			if q {
				return bench.E9SoftwareDist([]int{3, 7}, 40)
			}
			return bench.E9SoftwareDist([]int{3, 7, 15}, 150)
		}},
		{"E10", func(q bool) (*bench.Table, error) {
			if q {
				return bench.E10Activation(4)
			}
			return bench.E10Activation(8)
		}},
		{"E11", func(q bool) (*bench.Table, error) {
			if q {
				return bench.E11Views(3, 100, 3, 10)
			}
			return bench.E11Views(4, 400, 5, 20)
		}},
		{"E12", func(q bool) (*bench.Table, error) {
			if q {
				return bench.E12ChurnMaintenance(100, 3, 10)
			}
			return bench.E12ChurnMaintenance(400, 6, 20)
		}},
		{"E13", func(q bool) (*bench.Table, error) {
			if q {
				return bench.E13SessionPlanCache(100, 4, 8)
			}
			return bench.E13SessionPlanCache(400, 8, 25)
		}},
		{"E14", func(q bool) (*bench.Table, error) {
			sizes := bench.DefaultStreamingSizes
			if q {
				sizes = bench.QuickStreamingSizes
			}
			pts, t, err := bench.E14Streaming(sizes)
			if err != nil {
				return t, err
			}
			streaming = pts
			for _, p := range pts {
				label := fmt.Sprintf("%d", p.Size)
				t.AddPoint("cursor_first_row_ms", label, p.CursorFirstRowMs)
				t.AddPoint("cursor_total_ms", label, p.CursorTotalMs)
				t.AddPoint("first_row_gain", label, p.FirstRowGain)
				t.AddPoint("cursor_rows_per_sec", label, p.CursorRowsPerSec)
			}
			return t, err
		}},
		{"E15", func(q bool) (*bench.Table, error) {
			var pt *bench.PlacementPoint
			var t *bench.Table
			var err error
			if q {
				pt, t, err = bench.E15AdaptivePlacement(100, 3, 9, 5)
			} else {
				pt, t, err = bench.E15AdaptivePlacement(400, 4, 12, 10)
			}
			if err != nil {
				return t, err
			}
			placementPt = pt
			label := fmt.Sprintf("%d clients", pt.Clients)
			t.AddPoint("adaptive_bytes", label, float64(pt.AdaptiveBytes))
			t.AddPoint("static_bytes", label, float64(pt.StaticBytes))
			t.AddPoint("bytes_gain", label, pt.BytesGain)
			t.AddPoint("adaptive_median_ms", label, pt.AdaptiveMedianMs)
			t.AddPoint("static_median_ms", label, pt.StaticMedianMs)
			t.AddPoint("latency_gain", label, pt.LatencyGain)
			t.AddPoint("last_action_round", label, float64(pt.LastActionRound))
			return t, err
		}},
		{"E16", func(q bool) (*bench.Table, error) {
			window := bench.DefaultConcurrencyWindow
			if q {
				window = bench.QuickConcurrencyWindow
			}
			pts, t, err := bench.E16Concurrency(bench.DefaultConcurrencyReaders, window)
			if err != nil {
				return t, err
			}
			concurrency = pts
			for _, p := range pts {
				label := fmt.Sprintf("%d readers", p.Readers)
				t.AddPoint("snapshot_reads_per_sec", label, p.SnapshotReadsPerSec)
				t.AddPoint("locked_reads_per_sec", label, p.LockedReadsPerSec)
				t.AddPoint("snapshot_p50_ms", label, p.SnapshotP50Ms)
				t.AddPoint("locked_p50_ms", label, p.LockedP50Ms)
				t.AddPoint("read_speedup", label, p.ReadSpeedup)
				t.AddPoint("snapshot_writes_per_sec", label, p.SnapshotWritesPerSec)
			}
			return t, err
		}},
	}
	if *tcp {
		// E17 spawns real OS processes (the federation harness), so it
		// only joins the suite on explicit request.
		registry = append(registry, experiment{"E17", func(q bool) (*bench.Table, error) {
			var pt *bench.FederationPoint
			var t *bench.Table
			var err error
			if q {
				pt, t, err = bench.E17Federation(120, 3, 12)
			} else {
				pt, t, err = bench.E17Federation(400, 6, 25)
			}
			if err != nil {
				return t, err
			}
			federationPt = pt
			label := fmt.Sprintf("%d procs", pt.Processes)
			t.AddPoint("static_median_ms", label, pt.StaticMedianMs)
			t.AddPoint("federated_median_ms", label, pt.FederatedMedianMs)
			t.AddPoint("latency_gain", label, pt.LatencyGain)
			t.AddPoint("actions", label, float64(pt.Actions))
			t.AddPoint("last_action_round", label, float64(pt.LastActionRound))
			return t, err
		}})
	}

	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			selected[strings.ToUpper(id)] = true
		}
	}
	if len(selected) > 0 {
		// The gates need their experiments' data even under -only.
		if gates["streaming"] {
			selected["E14"] = true
		}
		if gates["placement"] {
			selected["E15"] = true
		}
		if gates["concurrency"] {
			selected["E16"] = true
		}
		if gates["federation"] {
			selected["E17"] = true
		}
	}

	var tables []*bench.Table
	for _, exp := range registry {
		if len(selected) > 0 && !selected[exp.id] {
			continue
		}
		t, err := exp.run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "axmlbench: %s: %v\n", exp.id, err)
			os.Exit(1)
		}
		// Every experiment emits trajectory points: explicit headline
		// points where the experiment added them, numeric table cells
		// otherwise — BENCH_*.json never carries an empty trajectory.
		t.FillPoints()
		tables = append(tables, t)
		t.Print(os.Stdout)
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, *quick, tables, streaming, placementPt, concurrency, federationPt); err != nil {
			fmt.Fprintf(os.Stderr, "axmlbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	if gates["streaming"] {
		if err := gateStreaming(streaming); err != nil {
			fmt.Fprintf(os.Stderr, "axmlbench: gate failed: %v\n", err)
			os.Exit(1)
		}
		last := streaming[len(streaming)-1]
		fmt.Printf("gate streaming: OK — first row %.2fms vs drain %.2fms (%.1fx) at %d items\n",
			last.CursorFirstRowMs, last.CursorTotalMs, last.FirstRowGain, last.Size)
	}
	if gates["placement"] {
		if err := gatePlacement(placementPt); err != nil {
			fmt.Fprintf(os.Stderr, "axmlbench: gate failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("gate placement: OK — adaptive %d bytes vs static %d (%.1fx), median %.2fms vs %.2fms (%.1fx), converged in round %d\n",
			placementPt.AdaptiveBytes, placementPt.StaticBytes, placementPt.BytesGain,
			placementPt.AdaptiveMedianMs, placementPt.StaticMedianMs, placementPt.LatencyGain,
			placementPt.LastActionRound)
	}
	if gates["concurrency"] {
		if err := gateConcurrency(concurrency); err != nil {
			fmt.Fprintf(os.Stderr, "axmlbench: gate failed: %v\n", err)
			os.Exit(1)
		}
		first, last := concurrency[0], concurrency[len(concurrency)-1]
		fmt.Printf("gate concurrency: OK — snapshot %.0f reads/s at %d readers (%.0f at %d) vs locked %.0f (%.1fx)\n",
			last.SnapshotReadsPerSec, last.Readers, first.SnapshotReadsPerSec, first.Readers,
			last.LockedReadsPerSec, last.ReadSpeedup)
	}
	if gates["federation"] {
		if err := gateFederation(federationPt); err != nil {
			fmt.Fprintf(os.Stderr, "axmlbench: gate failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("gate federation: OK — federated median %.3fms vs static %.3fms (%.1fx), %d actions (last in round %d of %d)\n",
			federationPt.FederatedMedianMs, federationPt.StaticMedianMs, federationPt.LatencyGain,
			federationPt.Actions, federationPt.LastActionRound, federationPt.Rounds)
	}
}

// gateFederation is the CI acceptance check of the federated control
// plane measured over real processes: the coordinator must actuate at
// least one migrate/replicate, the placement must settle (no actions in
// the final third of the rounds), and the coordinated deployment must
// beat the static one on measured wall-clock median latency.
func gateFederation(pt *bench.FederationPoint) error {
	if pt == nil {
		return fmt.Errorf("federation gate requires E17 to run (check -only and -tcp)")
	}
	if pt.Migrates+pt.Replicates == 0 {
		return fmt.Errorf("no migrate/replicate was actuated over TCP (%d actions total)", pt.Actions)
	}
	if !pt.Converged {
		return fmt.Errorf("placement did not converge: %d actions, last in round %d of %d",
			pt.Actions, pt.LastActionRound, pt.Rounds)
	}
	if pt.FederatedMedianMs >= pt.StaticMedianMs {
		return fmt.Errorf("federated does not beat static on median wall-clock latency: %.3fms vs %.3fms",
			pt.FederatedMedianMs, pt.StaticMedianMs)
	}
	return nil
}

// gateConcurrency is the CI acceptance check of the MVCC serving path:
// at the largest reader count, snapshot readers must not be serialized
// behind the writer — their aggregate throughput must beat the
// store-wide-locked baseline and must have scaled up from the
// single-reader configuration. The scaling margin is deliberately
// loose (1.15x for a 4x reader increase) to absorb CI timing noise;
// the point is to catch accidental reintroduction of a global lock on
// the read path, which collapses scaling to ~1.0x and parity with the
// locked baseline.
func gateConcurrency(points []bench.ConcurrencyPoint) error {
	if len(points) == 0 {
		return fmt.Errorf("concurrency gate requires E16 to run (check -only)")
	}
	first, last := points[0], points[len(points)-1]
	if last.Readers <= first.Readers {
		return fmt.Errorf("concurrency gate needs increasing reader counts, got %d..%d",
			first.Readers, last.Readers)
	}
	if last.SnapshotReadsPerSec <= last.LockedReadsPerSec {
		return fmt.Errorf(
			"snapshot readers do not beat the locked baseline at %d readers: %.0f vs %.0f reads/s",
			last.Readers, last.SnapshotReadsPerSec, last.LockedReadsPerSec)
	}
	if last.SnapshotReadsPerSec < first.SnapshotReadsPerSec*1.15 {
		return fmt.Errorf(
			"snapshot throughput does not scale with readers: %.0f reads/s at %d readers vs %.0f at %d",
			last.SnapshotReadsPerSec, last.Readers, first.SnapshotReadsPerSec, first.Readers)
	}
	return nil
}

// gatePlacement is the CI acceptance check of the adaptive-placement
// loop: adaptive must beat static on total bytes shipped AND median
// query latency, and the placement must converge (no decisions in the
// final third of the rounds).
func gatePlacement(pt *bench.PlacementPoint) error {
	if pt == nil {
		return fmt.Errorf("placement gate requires E15 to run (check -only)")
	}
	if pt.AdaptiveBytes >= pt.StaticBytes {
		return fmt.Errorf("adaptive does not beat static on bytes shipped: %d vs %d",
			pt.AdaptiveBytes, pt.StaticBytes)
	}
	if pt.AdaptiveMedianMs >= pt.StaticMedianMs {
		return fmt.Errorf("adaptive does not beat static on median latency: %.3fms vs %.3fms",
			pt.AdaptiveMedianMs, pt.StaticMedianMs)
	}
	if !pt.Converged {
		return fmt.Errorf("placement did not converge: %d actions, last in round %d of %d",
			pt.Actions, pt.LastActionRound, pt.Rounds)
	}
	return nil
}

// gateStreaming is the CI acceptance check: at the largest measured
// result size the cursor's first row must arrive in at most half the
// time it takes to drain the cursor. An evaluator that materializes
// before it streams pays the whole drain for its first row (ratio 1),
// so this fails any regression to materialize-then-stream.
func gateStreaming(points []bench.StreamingPoint) error {
	if len(points) == 0 {
		return fmt.Errorf("streaming gate requires E14 to run (check -only)")
	}
	last := points[len(points)-1]
	if 2*last.CursorFirstRowMs > last.CursorTotalMs {
		return fmt.Errorf(
			"first row is not streamed ahead of evaluation at %d items: first row %.3fms, drain %.3fms",
			last.Size, last.CursorFirstRowMs, last.CursorTotalMs)
	}
	return nil
}

// benchReport is the BENCH_*.json schema: the rendered tables plus
// E14's raw streaming points, E15's placement summary, and E16's
// concurrency points, so trajectory tooling can plot first-row
// latency, placement gains, and snapshot-vs-locked throughput across
// commits without re-parsing table strings.
type benchReport struct {
	Quick       bool                     `json:"quick"`
	Experiments []*bench.Table           `json:"experiments"`
	Streaming   []bench.StreamingPoint   `json:"streaming,omitempty"`
	Placement   *bench.PlacementPoint    `json:"placement,omitempty"`
	Concurrency []bench.ConcurrencyPoint `json:"concurrency,omitempty"`
	Federation  *bench.FederationPoint   `json:"federation,omitempty"`
}

func writeJSON(path string, quick bool, tables []*bench.Table,
	streaming []bench.StreamingPoint, placement *bench.PlacementPoint,
	concurrency []bench.ConcurrencyPoint, federation *bench.FederationPoint) error {
	data, err := json.MarshalIndent(benchReport{
		Quick: quick, Experiments: tables, Streaming: streaming, Placement: placement,
		Concurrency: concurrency, Federation: federation,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
