// Command benchmarks is the repository's performance ledger: five
// wire-level workloads against a real axmlpeer child process, and an
// in-process pass that times each layer's public functions and traces
// requests from the outside in. See README.md in this directory.
//
// One run, as the benchmark contract calls it:
//
//	bash benchmarks/run.sh --workload point_lookup --seed 1 --seconds 15 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// run's correctness and its metrics: the end-to-end metrics of
// BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
// Without --workload every workload runs and a ledger is printed; -aa and
// -compare judge two ledgers by the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

type options struct {
	root       string
	workload   string
	seed       int64
	seconds    float64
	trace      int
	runs       int
	aa         bool
	compare    bool
	jsonOut    string
	outDir     string
	cpuProfile string
	memProfile string
}

func main() {
	var o options
	flag.StringVar(&o.root, "root", "", "checkout to measure (default: the directory holding BENCHMARK.json, here or one up)")
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print one result line (default: every workload, as a ledger)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, nothing traced; 1: per-layer metrics from the layer pass and the traced replay")
	flag.IntVar(&o.runs, "runs", 1, "ledger mode: end-to-end runs per workload")
	flag.BoolVar(&o.aa, "aa", false, "measure the ledger twice on this build and fail if any end-to-end metric differs by more than its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two ledger files: -compare old.json new.json")
	flag.StringVar(&o.jsonOut, "json", "", "ledger mode: also write the ledger to this file")
	flag.StringVar(&o.outDir, "out", "", "directory for trace files (default: .bench_build/trace in the checkout)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the layer pass to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile after the layer pass to this file")
	flag.Parse()
	code, err := run(&o, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(o *options, args []string) (int, error) {
	if o.root == "" {
		o.root = "."
		if _, err := os.Stat("BENCHMARK.json"); err != nil {
			o.root = ".."
		}
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return 1, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return 1, err
	}
	if o.compare {
		if len(args) != 2 {
			return 2, fmt.Errorf("-compare takes two ledger files")
		}
		return compareFiles(spec, args[0], args[1])
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.outDir == "" {
		o.outDir = filepath.Join(root, ".bench_build", "trace")
	}

	// Everything a run writes stays under .bench_build in the checkout;
	// the per-run directory goes away with the run.
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return 1, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmp)
	bin, took, err := buildPeer(root, build)
	if err != nil {
		return 1, err
	}
	e := &env{root: root, tmp: tmp, peerBin: bin, buildS: took.Seconds(), seed: o.seed}

	if o.workload != "" {
		wl, ok := findWorkload(o.workload)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", o.workload)
		}
		res, err := runOnce(e, o, spec, wl)
		if err != nil {
			return 1, err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return 1, err
		}
		fmt.Println(string(line))
		return 0, nil
	}

	first, err := measureLedger(e, o, spec)
	if err != nil {
		return 1, err
	}
	first.print(spec)
	if o.jsonOut != "" {
		if err := first.write(o.jsonOut); err != nil {
			return 1, err
		}
	}
	if !o.aa {
		return 0, nil
	}
	second, err := measureLedger(e, o, spec)
	if err != nil {
		return 1, err
	}
	second.print(spec)
	return compareLedgers(spec, first, second, true), nil
}

// peersPerRun is how many fresh peers share an end-to-end run's window.
// It is also how many set-ups the reported set-up time is the median of.
const peersPerRun = 5

// result is the one line a contract run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOnce performs one run of one workload: the end-to-end pass alone
// (trace 0), or a short end-to-end pass for the per-workload counters
// followed by the traced replay and the layer pass (trace 1).
func runOnce(e *env, o *options, spec *benchSpec, wl *workload) (*result, error) {
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 0 {
		r, err := runE2E(e, wl, window, peersPerRun)
		if err != nil {
			return nil, err
		}
		return finish(spec.EndToEnd, r.metrics, r.attempted, r.failed, r.notes)
	}

	r, err := runE2E(e, wl, window/4, 1)
	if err != nil {
		return nil, err
	}
	measured := r.metrics
	fx, err := newFixture(e, wl)
	if err != nil {
		return nil, err
	}
	tl := &tally{}
	traceFile := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", wl.name, e.seed), "trace.json")
	traced, err := tracedRun(wl, fx.m, e.seed, window/4, traceFile, tl)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "trace written to", traceFile)
	layers, err := profiled(o, func() (map[string]float64, error) { return layerPass(e.seed, window/2) })
	if err != nil {
		return nil, err
	}
	for _, m := range []map[string]float64{traced, layers} {
		for k, v := range m {
			measured[k] = v
		}
	}
	return finish(spec.PerLayer, measured,
		r.attempted+int(tl.attempted.Load()), r.failed+int(tl.failed.Load()), append(r.notes, tl.notes...))
}

func finish(list []metricSpec, measured map[string]float64, attempted, failed int, notes []string) (*result, error) {
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "failed:", n)
	}
	metrics, err := selectMetrics(list, measured)
	if err != nil {
		return nil, err
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %q is not finite", name)
		}
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// profiled runs f under the profiles the flags ask for.
func profiled(o *options, f func() (map[string]float64, error)) (map[string]float64, error) {
	if o.cpuProfile != "" {
		file, err := os.Create(o.cpuProfile)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		if err := pprof.StartCPUProfile(file); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	out, err := f()
	if err == nil && o.memProfile != "" {
		file, cerr := os.Create(o.memProfile)
		if cerr != nil {
			return nil, cerr
		}
		defer file.Close()
		if werr := pprof.WriteHeapProfile(file); werr != nil {
			return nil, werr
		}
	}
	return out, err
}
