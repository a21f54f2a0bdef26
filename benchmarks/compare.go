package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// ledger is one measured set: every workload, its end-to-end metrics (one
// value per run) and its per-layer metrics (one traced run).
type ledger struct {
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string]*ledgerEntry `json:"workloads"`
}

type ledgerEntry struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
}

// measureLedger runs every workload: o.runs end-to-end runs, then one
// traced run.
func measureLedger(e *env, o *options, spec *benchSpec) (*ledger, error) {
	l := &ledger{Seed: e.seed, Seconds: o.seconds, Workloads: map[string]*ledgerEntry{}}
	for i := range workloads {
		wl := &workloads[i]
		entry := &ledgerEntry{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		l.Workloads[wl.name] = entry
		for _, trace := range append(make([]int, o.runs), 1) {
			fmt.Fprintf(os.Stderr, "%s: trace %d\n", wl.name, trace)
			oo := *o
			oo.trace = trace
			res, err := runOnce(e, &oo, spec, wl)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", wl.name, err)
			}
			entry.Attempted += res.Attempted
			entry.Failed += res.Failed
			for name, m := range res.Metrics {
				if trace == 0 {
					entry.EndToEnd[name] = append(entry.EndToEnd[name], m.Value)
				} else {
					entry.PerLayer[name] = m.Value
				}
			}
		}
	}
	return l, nil
}

func (l *ledger) write(file string) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(data, '\n'), 0o644)
}

func readLedger(file string) (*ledger, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return &l, nil
}

// print writes every metric by name with its unit: one table per list,
// one column per workload.
func (l *ledger) print(spec *benchSpec) {
	fmt.Printf("seed %d, %g s windows\n", l.Seed, l.Seconds)
	header := func(title string) {
		fmt.Printf("\n%-34s %-8s", title, "unit")
		for _, w := range spec.Workloads {
			fmt.Printf(" %14s", w.Name)
		}
		fmt.Println()
	}
	header("end to end (median of runs)")
	for _, m := range spec.EndToEnd {
		fmt.Printf("%-34s %-8s", m.Name, m.Unit)
		for _, w := range spec.Workloads {
			fmt.Printf(" %14.4g", median(l.Workloads[w.Name].EndToEnd[m.Name]))
		}
		fmt.Println()
	}
	fmt.Printf("%-34s %-8s", "failed / attempted", "count")
	for _, w := range spec.Workloads {
		en := l.Workloads[w.Name]
		fmt.Printf(" %14s", fmt.Sprintf("%d/%d", en.Failed, en.Attempted))
	}
	fmt.Println()
	header("per layer (one traced run)")
	for _, m := range spec.PerLayer {
		fmt.Printf("%-34s %-8s", m.Name, m.Unit)
		for _, w := range spec.Workloads {
			fmt.Printf(" %14.4g", l.Workloads[w.Name].PerLayer[m.Name])
		}
		fmt.Println()
	}
}

func compareFiles(spec *benchSpec, oldFile, newFile string) (int, error) {
	a, err := readLedger(oldFile)
	if err != nil {
		return 1, err
	}
	b, err := readLedger(newFile)
	if err != nil {
		return 1, err
	}
	return compareLedgers(spec, a, b, false), nil
}

// compareLedgers prints a verdict for every pairing of workload and
// end-to-end metric and returns the exit code: 1 when a metric regressed
// — or, for an A/A comparison, differs at all beyond its bound — or when
// either side has failed operations.
func compareLedgers(spec *benchSpec, a, b *ledger, aa bool) int {
	code := 0
	fmt.Printf("\n%-14s %-20s %12s %12s %8s %8s  %s\n",
		"workload", "metric", "old", "new", "worse%", "spread%", "verdict")
	for _, w := range spec.Workloads {
		ea, eb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ea == nil || eb == nil {
			fmt.Printf("%-14s missing from one ledger\n", w.Name)
			code = 1
			continue
		}
		if ea.Failed > 0 || eb.Failed > 0 {
			fmt.Printf("%-14s failed operations: old %d, new %d\n", w.Name, ea.Failed, eb.Failed)
			code = 1
		}
		for _, m := range spec.EndToEnd {
			v := judge(m, ea.EndToEnd[m.Name], eb.EndToEnd[m.Name])
			fmt.Printf("%-14s %-20s %12.4g %12.4g %8.1f %8.1f  %s\n",
				w.Name, m.Name, v.old, v.new, 100*v.worse, 100*v.spread, v.verdict)
			if v.verdict == "regressed" || (aa && v.verdict != "unchanged") {
				code = 1
			}
		}
	}
	return code
}

type verdict struct {
	old, new float64
	worse    float64 // share of the old median by which the new one is worse
	spread   float64 // the wider side's quartile spread, as a share of its median
	verdict  string  // improved | unchanged | regressed | unresolved
}

// judge applies a metric's bound to two sets of runs. A difference within
// the bound is "unchanged"; beyond it, "improved" or "regressed" — unless
// the runs of either side spread wider than the bound, in which case only
// complete separation of the two sides counts and anything else is
// "unresolved".
func judge(m metricSpec, oldRuns, newRuns []float64) verdict {
	v := verdict{
		old: median(oldRuns),
		new: median(newRuns),
	}
	if v.old != 0 {
		v.worse = (v.new - v.old) / v.old
	}
	if m.Better == "higher" {
		v.worse = -v.worse
	}
	v.spread = max(quartileSpread(oldRuns), quartileSpread(newRuns))
	if v.spread > m.Bound {
		switch {
		case separated(m, newRuns, oldRuns):
			v.verdict = "improved"
		case separated(m, oldRuns, newRuns):
			v.verdict = "regressed"
		default:
			v.verdict = "unresolved"
		}
		return v
	}
	switch {
	case v.worse > m.Bound:
		v.verdict = "regressed"
	case v.worse < -m.Bound:
		v.verdict = "improved"
	default:
		v.verdict = "unchanged"
	}
	return v
}

// separated reports whether every run of good reads better than every
// run of bad.
func separated(m metricSpec, good, bad []float64) bool {
	if len(good) == 0 || len(bad) == 0 {
		return false
	}
	if m.Better == "higher" {
		return slices.Min(good) > slices.Max(bad)
	}
	return slices.Max(good) < slices.Min(bad)
}
