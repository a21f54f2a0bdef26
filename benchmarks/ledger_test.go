package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// allowedImports is the benchmark's whole compile surface inside the
// repository. Later changes may rework anything else without touching
// this directory.
var allowedImports = map[string]bool{
	"axml":                   true,
	"axml/internal/workload": true,
	"axml/internal/xmltree":  true,
	"axml/internal/xpath":    true,
	"axml/internal/xquery":   true,
	"axml/internal/opt":      true,
	"axml/internal/core":     true,
	"axml/internal/netsim":   true,
	"axml/internal/session":  true,
	"axml/internal/view":     true,
	"axml/internal/peer":     true,
	"axml/internal/wire":     true,
	"axml/internal/obs":      true,
}

// forbidden lists what ROADMAP plans to subtract. Qualified names are
// matched against package selectors; bare names against any method or
// field selector, which is stricter than needed and costs nothing.
var forbidden = map[string]bool{
	"session.WithEagerEval": true,
	"session.Stats":         true,
	"wire.ServerStats":      true,
	"wire.Forwarder":        true,
	"QueryAll":              true, // QUERY verb
	"Delete":                true, // DELETE verb
	"Replace":               true, // REPLACE verb
	"Adopt":                 true,
	"Migrate":               true,
}

func TestImportSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if (path == "axml" || strings.HasPrefix(path, "axml/")) && !allowedImports[path] {
					t.Errorf("%s imports %s, which is outside the benchmark's compile surface", name, path)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if forbidden[sel.Sel.Name] {
					t.Errorf("%s uses %s, which is on ROADMAP's subtraction list",
						fset.Position(sel.Pos()), sel.Sel.Name)
				}
				if x, ok := sel.X.(*ast.Ident); ok && forbidden[x.Name+"."+sel.Sel.Name] {
					t.Errorf("%s uses %s.%s, which is on ROADMAP's subtraction list",
						fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
				}
				return true
			})
		}
	}
}

// testEnv builds axmlpeer from the checkout this directory sits in.
func testEnv(t *testing.T) (*env, *benchSpec) {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns axmlpeer processes; skipped under -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, took, err := buildPeer(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	return &env{root: root, tmp: dir, peerBin: bin, buildS: took.Seconds(), seed: 1}, spec
}

// childPeers counts axmlpeer processes whose parent is this process.
func childPeers(t *testing.T) int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range stats {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // the process ended while we were listing
		}
		open, end := bytes.IndexByte(data, '('), bytes.LastIndexByte(data, ')')
		if open < 0 || end < open {
			continue
		}
		fields := strings.Fields(string(data[end+1:]))
		if string(data[open+1:end]) == "axmlpeer" && len(fields) > 1 &&
			fields[0] != "Z" && fields[1] == strconv.Itoa(os.Getpid()) {
			n++
		}
	}
	return n
}

// TestSmoke runs every workload with one-second windows, both ways the
// contract runs it, and checks what a run must always deliver.
func TestSmoke(t *testing.T) {
	e, spec := testEnv(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		wl, ok := findWorkload(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
		for trace, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			o := &options{seconds: 1, trace: trace, outDir: filepath.Join(e.tmp, "trace")}
			res, err := runOnce(e, o, spec, wl)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v, %d failed of %d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s trace %d: %d metrics emitted, %d listed", w.Name, trace, len(res.Metrics), len(list))
			}
			for _, m := range list {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is not finite", w.Name, m.Name)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be zero", w.Name, m.Name, got.Value)
				}
			}
			if trace == 1 {
				for _, name := range []string{"peer.epochs.pinned_at_end", "wire.streams_aborted"} {
					if v := res.Metrics[name].Value; v != 0 {
						t.Errorf("%s: %s = %v, want 0", w.Name, name, v)
					}
				}
				traceFile := filepath.Join(o.outDir, w.Name+"-seed1", "trace.json")
				if fi, err := os.Stat(traceFile); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no trace at %s: %v", w.Name, traceFile, err)
				}
			}
			if n := childPeers(t); n != 0 {
				t.Fatalf("%s trace %d: %d axmlpeer children left running", w.Name, trace, n)
			}
		}
	}
}

// TestPeerLifecycle checks the harness around the child process: it exits
// on SIGTERM, and a failed start or a failed run leaves neither a child
// nor a scratch directory behind.
func TestPeerLifecycle(t *testing.T) {
	e, _ := testEnv(t)
	wl, _ := findWorkload("delegated_hot")
	fx, err := newFixture(e, wl)
	if err != nil {
		t.Fatal(err)
	}

	p, err := startPeer(e.peerBin, e.tmp, []string{fx.docSpec})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("axmlpeer took %v to exit on SIGTERM", d)
	}

	if _, err := startPeer(e.peerBin, e.tmp, []string{"catalog=" + filepath.Join(e.tmp, "missing.xml")}); err == nil {
		t.Error("startPeer succeeded with a missing document")
	}
	if n := childPeers(t); n != 0 {
		t.Fatalf("%d axmlpeer children left after a failed start", n)
	}

	// A run that fails after its peer has served traffic: the trace
	// directory cannot be created because a file is in the way.
	blocker := filepath.Join(e.tmp, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	scratch := func() []string {
		dirs, _ := filepath.Glob(filepath.Join(e.root, ".bench_build", "run-*"))
		return dirs
	}
	before := len(scratch())
	code, err := run(&options{root: e.root, workload: "delegated_hot", seed: 1, seconds: 1, trace: 1,
		outDir: filepath.Join(blocker, "trace")}, nil)
	if err == nil || code == 0 {
		t.Errorf("run with an unusable trace directory: code %d, err %v", code, err)
	}
	if after := len(scratch()); after != before {
		t.Errorf("%d scratch directories before the failed run, %d after", before, after)
	}
	if n := childPeers(t); n != 0 {
		t.Fatalf("%d axmlpeer children left after a failed run", n)
	}
}

// TestLayerShares checks, at full window length, the predictions the
// workloads were designed around. It takes about a minute and a quiet
// machine, so it runs only when AXML_LEDGER_SHARES is set.
func TestLayerShares(t *testing.T) {
	if os.Getenv("AXML_LEDGER_SHARES") == "" {
		t.Skip("set AXML_LEDGER_SHARES=1 to run")
	}
	e, spec := testEnv(t)
	type check struct {
		workload string
		what     string
		ok       func(m map[string]metricValue) bool
	}
	v := func(m map[string]metricValue, name string) float64 { return m[name].Value }
	checks := []check{
		{"point_lookup", "share.xquery >= 0.6", func(m map[string]metricValue) bool { return v(m, "share.xquery") >= 0.6 }},
		// Not the <= 0.05 first predicted: core walks the whole document
		// once per query to count its nodes for the cost model (README,
		// "Findings").
		{"point_lookup", "share.core <= 0.15", func(m map[string]metricValue) bool { return v(m, "share.core") <= 0.15 }},
		{"bulk_scan", "share.wire + share.xmltree_* >= 0.5", func(m map[string]metricValue) bool {
			return v(m, "share.wire")+v(m, "share.xmltree_serialize")+v(m, "share.xmltree_parse") >= 0.5
		}},
		{"plan_churn", "share.opt >= 0.6", func(m map[string]metricValue) bool { return v(m, "share.opt") >= 0.6 }},
		{"delegated_hot", "share.opt <= 0.05", func(m map[string]metricValue) bool { return v(m, "share.opt") <= 0.05 }},
		{"delegated_hot", "share.core >= 0.2", func(m map[string]metricValue) bool { return v(m, "share.core") >= 0.2 }},
	}
	for _, w := range spec.Workloads {
		wl, _ := findWorkload(w.Name)
		o := &options{seconds: float64(spec.RunSeconds), trace: 1, outDir: filepath.Join(e.tmp, "trace")}
		res, err := runOnce(e, o, spec, wl)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if u := v(res.Metrics, "trace.unattributed_pct"); u > 15 {
			t.Errorf("%s: trace.unattributed_pct = %.1f, want <= 15", w.Name, u)
		}
		for _, c := range checks {
			if c.workload == w.Name && !c.ok(res.Metrics) {
				t.Errorf("%s: %s does not hold: %v", w.Name, c.what, res.Metrics)
			}
		}
	}
}

// TestReferenceTime checks the arithmetic of reference time on two slices
// of equal length, one on a host at reference speed and one on a host half
// as fast that completes half as many reads, each taking twice as long:
// in reference time the two slices are the same.
func TestReferenceTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	windows := []window{
		{from: mark{at: at(0)}, to: mark{at: at(200), peerCPU: 0.08}, speed: hostSpeed{wall: 1, cpu: 1}},
		{from: mark{at: at(300), peerCPU: 0.08}, to: mark{at: at(500), peerCPU: 0.16}, speed: hostSpeed{wall: 0.5, cpu: 0.5}},
	}
	var tr traffic
	for i := 1; i <= 4; i++ {
		tr.reads = append(tr.reads, sample{done: at(50 * i), totalMs: 10, firstMs: 2, rows: 3})
	}
	for i := 1; i <= 2; i++ {
		tr.reads = append(tr.reads, sample{done: at(300 + 100*i), totalMs: 20, firstMs: 4, rows: 3})
	}
	tr.reads = append(tr.reads, sample{done: at(250), totalMs: 99, rows: 3}) // in the pause: in no slice
	var lt ledgerTime
	lt.add(tr, windows)
	m := map[string]float64{}
	lt.metrics(m)
	want := map[string]float64{
		"qps":                6 / 0.3, // 0.2 s + 0.2 s at half speed
		"rows_per_s":         18 / 0.3,
		"read_p50_ms":        10,
		"read_p95_ms":        10,
		"first_row_p50_ms":   2,
		"peer_cpu_ms_per_op": (80 + 40) / 6.0,
		"diag.host_speed":    0.75,
	}
	for name, w := range want {
		if got := m[name]; math.Abs(got-w) > 1e-9*w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if lt.slices != 2 || lt.idle != 0 {
		t.Errorf("%d slices, %d idle; want 2 and 0", lt.slices, lt.idle)
	}
}

// TestHostProbe checks that the reference computation runs and is timed on
// both clocks.
func TestHostProbe(t *testing.T) {
	p := probeHost()
	if p.wallMs <= 0 || p.cpuMs <= 0 || p.wallMs > 5000 {
		t.Fatalf("probe took %v ms elapsed, %v ms CPU", p.wallMs, p.cpuMs)
	}
	s := speedBetween(p, p)
	if math.Abs(s.wall-refKernelMs/p.wallMs) > 1e-12 {
		t.Errorf("speed %v from a probe of %v ms", s.wall, p.wallMs)
	}
}
