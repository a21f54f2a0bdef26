package obs

import (
	"context"
	"errors"
	"strings"
	"testing"

	"axml/internal/xmltree"
)

func TestSpanTreeParentLinks(t *testing.T) {
	tr := NewTrace("t1")
	ctx := WithTrace(context.Background(), tr)

	ctx, root := StartSpan(ctx, "query", "q")
	cctx, parse := StartSpan(ctx, "parse", "")
	parse.End()
	cctx, del := StartSpan(ctx, "delegate", "eval@p2")
	_, inner := StartSpan(cctx, "eval", "")
	inner.AddRows(3)
	inner.End()
	del.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byPhase := map[string]Span{}
	for _, sp := range spans {
		byPhase[sp.Phase] = sp
	}
	if byPhase["query"].Parent != 0 {
		t.Errorf("query span should be root, parent=%d", byPhase["query"].Parent)
	}
	if byPhase["parse"].Parent != byPhase["query"].ID {
		t.Errorf("parse parent = %d, want %d", byPhase["parse"].Parent, byPhase["query"].ID)
	}
	if byPhase["delegate"].Parent != byPhase["query"].ID {
		t.Errorf("delegate parent = %d, want %d", byPhase["delegate"].Parent, byPhase["query"].ID)
	}
	if byPhase["eval"].Parent != byPhase["delegate"].ID {
		t.Errorf("eval parent = %d, want %d", byPhase["eval"].Parent, byPhase["delegate"].ID)
	}
	if byPhase["eval"].Rows != 3 {
		t.Errorf("eval rows = %d, want 3", byPhase["eval"].Rows)
	}
}

func TestStartSpanWithoutTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "query", "q")
	if sp != nil {
		t.Fatalf("expected nil span without a trace")
	}
	if ctx2 != ctx {
		t.Fatalf("expected unchanged context without a trace")
	}
	// All nil-span methods must be safe no-ops.
	sp.End()
	sp.SetNet("a", "b", 1)
	sp.EndVTAt(3)
	sp.AddBytes(1, 2)
	sp.AddRows(1)
	sp.Set("k", "v")
	sp.Fail(errors.New("x"))
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTrace("t")
	ctx := WithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "query", "")
	sp.End()
	first := tr.Spans()[0].WallMs
	sp.End()
	if got := tr.Spans()[0].WallMs; got != first {
		t.Errorf("End not idempotent: %v then %v", first, got)
	}
}

func TestSpansSnapshotIsolation(t *testing.T) {
	tr := NewTrace("t")
	ctx := WithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "query", "")
	defer sp.End()
	sp.Set("k", "v1")
	snap := tr.Spans()
	snap[0].Attrs["k"] = "mutated"
	if got := tr.Spans()[0].Attrs["k"]; got != "v1" {
		t.Errorf("snapshot mutation leaked into trace: %q", got)
	}
}

func TestRenderTree(t *testing.T) {
	tr := NewTrace("t")
	ctx := WithTrace(context.Background(), tr)
	ctx, root := StartSpan(ctx, "query", "for $i in …")
	_, parse := StartSpan(ctx, "parse", "")
	parse.End()
	dctx, del := StartSpan(ctx, "delegate", "eval@p2")
	del.SetNet("p1", "p2", 10)
	del.AddBytes(210, 1841)
	_, ev := StartSpan(dctx, "eval", "")
	ev.SetNet("", "p2", 12)
	ev.AddRows(3)
	ev.End()
	del.End()
	root.End()

	out := Render(tr.Spans())
	for _, want := range []string{"query", "├─ parse", "└─ delegate p1→p2", "   └─ eval @p2", "bytes=210/1841", "rows=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderEmpty(t *testing.T) {
	if got := Render(nil); !strings.Contains(got, "empty") {
		t.Errorf("Render(nil) = %q", got)
	}
}

func TestSpansXMLRoundTrip(t *testing.T) {
	tr := NewTrace("abc123")
	ctx := WithTrace(context.Background(), tr)
	ctx, root := StartSpan(ctx, "query", `for $i in doc("x")/y return $i`)
	root.Set("cache", "miss")
	_, del := StartSpan(ctx, "delegate", "eval@p2")
	del.SetNet("p1", "p2", 5)
	del.StartVT, del.EndVT = 5, 40
	del.AddBytes(128, 4096)
	del.Fail(errors.New("boom"))
	del.End()
	root.AddRows(7)
	root.End()

	node := SpansToXML(tr.ID, tr.Spans())
	// Force a real serialize/parse cycle, as the wire does.
	reparsed, err := xmltree.Parse(xmltree.Serialize(node))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	id, spans, err := SpansFromXML(reparsed)
	if err != nil {
		t.Fatalf("SpansFromXML: %v", err)
	}
	if id != "abc123" {
		t.Errorf("trace id = %q", id)
	}
	want := tr.Spans()
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d", len(spans), len(want))
	}
	for i := range want {
		g, w := spans[i], want[i]
		if g.ID != w.ID || g.Parent != w.Parent || g.Phase != w.Phase ||
			g.Name != w.Name || g.From != w.From || g.To != w.To ||
			g.BytesOut != w.BytesOut || g.BytesIn != w.BytesIn ||
			g.Rows != w.Rows || g.Err != w.Err ||
			g.StartVT != w.StartVT || g.EndVT != w.EndVT {
			t.Errorf("span %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
		if w.Attrs != nil && g.Attrs["cache"] != w.Attrs["cache"] {
			t.Errorf("span %d attrs mismatch: %v vs %v", i, g.Attrs, w.Attrs)
		}
	}
}

func TestSnapshotXMLRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("session.plan_cache.hits").Add(5)
	r.Counter("wire.rows_streamed").Add(42)
	r.Gauge("net.bytes_total", func() int64 { return 1234 })
	r.Histogram("query.wall_ms", []float64{1, 10, 100}).Observe(3.5)

	snap := r.Snapshot()
	reparsed, err := xmltree.Parse(xmltree.Serialize(SnapshotToXML(snap)))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	got, err := SnapshotFromXML(reparsed)
	if err != nil {
		t.Fatalf("SnapshotFromXML: %v", err)
	}
	if got.Counters["session.plan_cache.hits"] != 5 || got.Counters["wire.rows_streamed"] != 42 {
		t.Errorf("counters: %v", got.Counters)
	}
	if got.Gauges["net.bytes_total"] != 1234 {
		t.Errorf("gauges: %v", got.Gauges)
	}
	h := got.Histograms["query.wall_ms"]
	if h.Count != 1 || h.Sum != 3.5 {
		t.Errorf("histogram: %+v", h)
	}
}

func TestNilRegistryAndTrace(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("g", func() int64 { return 1 })
	r.Histogram("h", nil).Observe(1)
	r.RecordTrace(NewTrace("t"))
	if got := r.TraceByID("t"); got != nil {
		t.Errorf("nil registry returned trace %v", got)
	}
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Errorf("nil registry snapshot: %v", snap)
	}
}

func TestTraceRingEviction(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < defaultTraceCap+5; i++ {
		r.RecordTrace(NewTrace(strings.Repeat("x", 1) + string(rune('A'+i%26)) + string(rune('0'+i/26))))
	}
	ids := r.TraceIDs()
	if len(ids) != defaultTraceCap {
		t.Fatalf("ring holds %d traces, want %d", len(ids), defaultTraceCap)
	}
}
