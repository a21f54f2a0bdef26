package netsim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// echoHandler answers calls with a fixed payload after a fixed compute
// cost.
type echoHandler struct {
	reply []byte
	cost  float64
}

func (h *echoHandler) HandleCall(msg Message, arriveVT float64) ([]byte, string, float64, error) {
	return h.reply, "reply", arriveVT + h.cost, nil
}

func TestCallRoundTrip(t *testing.T) {
	n := New()
	h := &echoHandler{reply: make([]byte, 136), cost: 3} // reply size 200
	if err := n.Register("a", &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", h); err != nil {
		t.Fatal(err)
	}
	n.SetLinkBoth("a", "b", Link{LatencyMs: 2, BytesPerMs: 100})

	body := make([]byte, 36) // request size 100 → 1ms transfer
	rbody, kind, vt, err := n.Call(Message{From: "a", To: "b", Kind: "req", Body: body, VT: 0})
	if err != nil {
		t.Fatal(err)
	}
	if kind != "reply" || len(rbody) != 136 {
		t.Errorf("reply = %q/%d", kind, len(rbody))
	}
	// out: 2 + 100/100 = 3; compute: +3 → 6; back: 2 + 200/100 = 4 → 10
	if vt != 10 {
		t.Errorf("vt = %v, want 10", vt)
	}
	st := n.Stats()
	if st.Messages != 2 || st.Bytes != 300 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLocalCallFree(t *testing.T) {
	n := New()
	h := &echoHandler{reply: []byte("r"), cost: 5}
	if err := n.Register("a", h); err != nil {
		t.Fatal(err)
	}
	_, _, vt, err := n.Call(Message{From: "a", To: "a", Kind: "req", VT: 2})
	if err != nil {
		t.Fatal(err)
	}
	if vt != 7 { // 2 + 5 compute, no network
		t.Errorf("vt = %v, want 7", vt)
	}
	if st := n.Stats(); st.Messages != 0 {
		t.Errorf("local call accounted: %+v", st)
	}
}

func TestUnknownAndDownPeers(t *testing.T) {
	n := New()
	if err := n.Register("a", &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := n.Call(Message{From: "a", To: "ghost"})
	if !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("want ErrUnknownPeer, got %v", err)
	}
	if err := n.Register("b", &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	n.SetDown("b", true)
	if _, _, _, err := n.Call(Message{From: "a", To: "b"}); !errors.Is(err, ErrPeerDown) {
		t.Errorf("want ErrPeerDown, got %v", err)
	}
	n.SetDown("b", false)
	if _, _, _, err := n.Call(Message{From: "a", To: "b"}); err != nil {
		t.Errorf("recovered peer should accept: %v", err)
	}
}

func TestDuplicateRegister(t *testing.T) {
	n := New()
	if err := n.Register("a", &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("a", &echoHandler{}); err == nil {
		t.Error("duplicate register should error")
	}
	n.Unregister("a")
	if err := n.Register("a", &echoHandler{}); err != nil {
		t.Errorf("re-register after unregister: %v", err)
	}
}

func TestTopologies(t *testing.T) {
	n := New()
	peers := PeerNames("p", 4)
	Uniform(n, peers, Link{LatencyMs: 5, BytesPerMs: 10})
	Line(n, peers, Link{LatencyMs: 3, BytesPerMs: 10})
	// p0→p3 over the line: 3 hops → 9ms.
	n.mu.Lock()
	l := n.links[linkKey{"p0", "p3"}]
	n.mu.Unlock()
	if l.LatencyMs != 9 {
		t.Errorf("line p0→p3 latency = %v, want 9", l.LatencyMs)
	}
	Star(n, "hub", peers, Link{LatencyMs: 2, BytesPerMs: 10})
	n.mu.Lock()
	spoke := n.links[linkKey{"hub", "p1"}]
	leaf := n.links[linkKey{"p1", "p2"}]
	n.mu.Unlock()
	if spoke.LatencyMs != 2 || leaf.LatencyMs != 4 {
		t.Errorf("star latencies = %v, %v", spoke.LatencyMs, leaf.LatencyMs)
	}
	RandomWAN(n, peers, 42, 10, 50, 1, 100)
	n.mu.Lock()
	w := n.links[linkKey{"p0", "p1"}]
	n.mu.Unlock()
	if w.LatencyMs < 10 || w.LatencyMs > 50 {
		t.Errorf("wan latency out of range: %v", w.LatencyMs)
	}
	// Determinism.
	n2 := New()
	RandomWAN(n2, peers, 42, 10, 50, 1, 100)
	n2.mu.Lock()
	w2 := n2.links[linkKey{"p0", "p1"}]
	n2.mu.Unlock()
	if w != w2 {
		t.Errorf("RandomWAN not deterministic: %v vs %v", w, w2)
	}
}

func TestObserveVT(t *testing.T) {
	n := New()
	n.ObserveVT(123)
	if st := n.Stats(); st.MaxVT != 123 {
		t.Errorf("MaxVT = %v", st.MaxVT)
	}
	n.ObserveVT(50) // lower: no change
	if st := n.Stats(); st.MaxVT != 123 {
		t.Errorf("MaxVT = %v after lower observe", st.MaxVT)
	}
}

func TestLinkTransfer(t *testing.T) {
	l := Link{LatencyMs: 5, BytesPerMs: 100}
	if got := l.transferMs(1000); got != 15 {
		t.Errorf("transferMs = %v, want 15", got)
	}
	inf := Link{LatencyMs: 5}
	if got := inf.transferMs(1 << 30); got != 5 {
		t.Errorf("infinite bandwidth transferMs = %v, want 5", got)
	}
}

// TestCallCtxLegClassification: a context that expires during the
// request leg aborts with a plain cancellation (the handler never
// ran); one that expires during the reply leg reports ErrAckLost — the
// handler's side effects stand.
func TestCallCtxLegClassification(t *testing.T) {
	n := New()
	var handled atomic.Int64
	if err := n.Register("a", &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", &countingHandler{hits: &handled}); err != nil {
		t.Fatal(err)
	}
	n.SetRealtime(1)

	// Request leg slow (a→b), reply instant: abort before delivery.
	n.SetLink("a", "b", Link{LatencyMs: 5000})
	n.SetLink("b", "a", Link{LatencyMs: 0})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, _, err := n.CallCtx(ctx, Message{From: "a", To: "b", Kind: "x"})
	if err == nil || errors.Is(err, ErrAckLost) {
		t.Fatalf("request-leg abort misclassified: %v", err)
	}
	if handled.Load() != 0 {
		t.Fatal("handler ran despite request-leg abort")
	}
	if st := n.Stats(); st.Messages != 0 {
		t.Errorf("aborted request accounted: %+v", st)
	}

	// Request instant, reply slow: the handler runs, the ack is lost.
	n.SetLink("a", "b", Link{LatencyMs: 0})
	n.SetLink("b", "a", Link{LatencyMs: 5000})
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	_, _, _, err = n.CallCtx(ctx2, Message{From: "a", To: "b", Kind: "x"})
	if !errors.Is(err, ErrAckLost) {
		t.Fatalf("reply-leg abort not classified as ErrAckLost: %v", err)
	}
	if handled.Load() != 1 {
		t.Error("handler did not run before the reply-leg abort")
	}
}

type countingHandler struct{ hits *atomic.Int64 }

func (h *countingHandler) HandleCall(Message, float64) ([]byte, string, float64, error) {
	h.hits.Add(1)
	return []byte("ok"), "reply", 0, nil
}
