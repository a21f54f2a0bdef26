package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"axml"
	"axml/internal/obs"
	"axml/internal/wire"
	"axml/internal/xmltree"
)

// env is what every pass needs to know about where it runs.
type env struct {
	root    string // the checkout
	tmp     string // this run's scratch directory, removed at exit
	peerBin string
	buildS  float64
	seed    int64
}

// requestTimeout bounds one request so a wedged peer fails the run
// instead of hanging it.
const requestTimeout = 30 * time.Second

// fixture is the generated input of one workload: the catalog file the
// peer loads and the generator's model of it.
type fixture struct {
	wl      *workload
	m       *model
	docFile string
	docSpec string // -doc argument
}

func newFixture(e *env, wl *workload) (*fixture, error) {
	m, catalog, err := newModel(wl.items, e.seed)
	if err != nil {
		return nil, err
	}
	f := &fixture{wl: wl, m: m, docFile: filepath.Join(e.tmp, wl.name+"-catalog.xml")}
	if err := os.WriteFile(f.docFile, []byte(xmltree.Serialize(catalog)), 0o644); err != nil {
		return nil, err
	}
	f.docSpec = "catalog=" + f.docFile
	if wl.remote {
		f.docSpec += "@data"
	}
	return f, nil
}

// tally counts requests across a whole run, set-up and warm-up included:
// a wrong answer anywhere is a failed operation.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	notes     []string // the first few failures, for the log
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.notes) < 5 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// sample is one completed read.
type sample struct {
	done    time.Time
	totalMs float64 // send → last row drained
	firstMs float64 // send → first row available from Rows.Next
	rows    int
	// snapshot marks a +snapshot read; stale one that showed a state
	// older than the writes acknowledged when it was sent.
	snapshot, stale bool
}

// writeSample is one completed write of the open-loop writer.
type writeSample struct {
	done      time.Time
	latencyMs float64 // due → acknowledged
	lateMs    float64 // due → actually sent
}

// conn is one connection plus the request stream it carries.
type conn struct {
	sess axml.Session
	rd   *reader
	// prevLo is the writer's acknowledged count when this connection's
	// previous read was sent: the floor of a snapshot read's staleness.
	prevLo int
}

// deployment is one live peer with the workload's connections open and
// its set-up complete.
type deployment struct {
	fx      *fixture
	peer    *peerProc
	readers []*conn
	writer  axml.Session // nil on read-only workloads
	tally   *tally

	// pause is held for reading around every read and for writing while
	// the host is probed, so a probe starts once the reads in flight have
	// drained and no read starts during it.
	pause sync.RWMutex

	// Writer counters the single-epoch check reads: sent is bumped
	// before a write goes out, acked after its reply arrived.
	sent  atomic.Int64
	acked atomic.Int64
}

// doRead sends one request, drains and verifies the reply.
func (d *deployment) doRead(c *conn) (sample, bool) {
	req := c.rd.next()
	d.tally.attempted.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var opts []axml.QueryOption
	if req.snapshot {
		opts = append(opts, axml.WithSnapshotIsolation())
	}
	lo := int(d.acked.Load())
	start := time.Now()
	rows, err := c.sess.Query(ctx, req.src, opts...)
	if err != nil {
		d.tally.fail("%s: %v", req.src, err)
		return sample{}, false
	}
	var got answer
	var first time.Duration
	for rows.Next() {
		if got.rows == 0 {
			first = time.Since(start)
		}
		got.add(rowDigest(rows.Node()))
	}
	end := time.Now()
	hi := int(d.sent.Load())
	if err := rows.Err(); err != nil {
		d.tally.fail("%s: mid-stream: %v", req.src, err)
		return sample{}, false
	}
	if got.rows == 0 {
		first = end.Sub(start)
	}
	ok, stale := req.accepts(d.fx.m, got, c.prevLo, lo, hi)
	c.prevLo = lo
	if !ok {
		d.tally.fail("%s: wrong answer (%d rows, digest %x; writes %d..%d)",
			req.src, got.rows, got.sum, lo, hi)
		return sample{}, false
	}
	return sample{done: end, rows: got.rows, snapshot: req.snapshot, stale: stale,
		totalMs: ms(end.Sub(start)), firstMs: ms(first)}, true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// deploy spawns a peer for the fixture and brings it to the point where
// the measured traffic can start: documents loaded, view defined and
// verified in use, every reader warmed up with verified replies. The time
// this takes is the workload's set-up time, reported in reference seconds:
// the host is probed before and after.
func deploy(e *env, fx *fixture, t *tally) (d *deployment, setupS float64, err error) {
	before := probeHost()
	start := time.Now()
	p, err := startPeer(e.peerBin, e.tmp, []string{fx.docSpec})
	if err != nil {
		return nil, 0, err
	}
	d = &deployment{fx: fx, peer: p, tally: t}
	defer func() {
		if err != nil {
			_ = d.close()
		}
	}()
	if fx.wl.view {
		if err := defineAndCheckView(p.addr, fx.m); err != nil {
			return nil, 0, err
		}
	}
	for c := 0; c < fx.wl.readers; c++ {
		sess, err := axml.Dial(p.addr)
		if err != nil {
			return nil, 0, err
		}
		d.readers = append(d.readers, &conn{sess: sess, rd: &reader{wl: fx.wl, m: fx.m, conn: c}})
	}
	if fx.wl.writeRate > 0 {
		if d.writer, err = axml.Dial(p.addr); err != nil {
			return nil, 0, err
		}
	}
	for _, c := range d.readers {
		for i := 0; i < fx.wl.warmup; i++ {
			if _, ok := d.doRead(c); !ok {
				return nil, 0, fmt.Errorf("set-up: warm-up request failed: %v", t.notes)
			}
		}
	}
	took := time.Since(start).Seconds()
	return d, took * speedBetween(before, probeHost()).wall, nil
}

// defineAndCheckView defines the workload's view over DEFVIEW and asserts,
// with one traced query, that a subsumed selection is answered from the
// view: its trace must contain no delegation to the base document's peer.
func defineAndCheckView(addr string, m *model) error {
	ctl, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer ctl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if err := ctl.DefineView(ctx, viewName, viewQuery(m)); err != nil {
		return fmt.Errorf("DEFVIEW: %w", err)
	}
	const id = "ledger-view-check"
	rows, err := ctl.Query(ctx, selection(m.threshold(viewRows/2), "$i"), axml.WithTraceID(id))
	if err != nil {
		return err
	}
	if _, err := rows.Collect(); err != nil {
		return err
	}
	spans, err := ctl.Trace(ctx, id)
	if err != nil {
		return err
	}
	for _, s := range spans {
		if s.Phase == "delegate" {
			return fmt.Errorf("set-up: read was not answered from view %q: it delegated to %s", viewName, s.To)
		}
	}
	return nil
}

// stats fetches the peer's STATS snapshot over a short-lived control
// connection, so no more than the workload's own connections are open
// while traffic runs.
func (d *deployment) stats() (obs.Snapshot, error) {
	ctl, err := wire.Dial(d.peer.addr)
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer ctl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	return ctl.Stats(ctx)
}

// close hangs up every connection and stops the peer.
func (d *deployment) close() error {
	for _, c := range d.readers {
		_ = c.sess.Close()
	}
	if d.writer != nil {
		_ = d.writer.Close()
	}
	return d.peer.stop()
}

// traffic is what one stretch of load produced.
type traffic struct {
	reads  []sample
	writes []writeSample
}

// run drives the workload's traffic until stop is closed: every reader in
// a closed loop (its next request goes out only after the previous reply
// is drained), the writer in an open loop on a fixed schedule.
func (d *deployment) run(stop <-chan struct{}) traffic {
	var wg sync.WaitGroup
	perReader := make([][]sample, len(d.readers))
	for i, c := range d.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.pause.RLock()
				s, ok := d.doRead(c)
				d.pause.RUnlock()
				if ok {
					perReader[i] = append(perReader[i], s)
				}
			}
		}()
	}
	var writes []writeSample
	if d.writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = d.runWriter(stop)
		}()
	}
	wg.Wait()
	var tr traffic
	for _, s := range perReader {
		tr.reads = append(tr.reads, s...)
	}
	tr.writes = writes
	return tr
}

// runWriter issues write j at start + j/rate, whatever the peer's pace;
// latency is counted from when the write was due, so a stall shows in
// every write queued behind it.
func (d *deployment) runWriter(stop <-chan struct{}) []writeSample {
	var out []writeSample
	m := d.fx.m
	interval := time.Second / time.Duration(d.fx.wl.writeRate)
	start := time.Now()
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return out
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		stmt := writeStatement(m.items[m.pool[j%len(m.pool)]].id, m.writePrice(j))
		d.tally.attempted.Add(1)
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		sentAt := time.Now()
		d.sent.Add(1)
		n, err := d.writer.Exec(ctx, stmt)
		cancel()
		done := time.Now()
		d.acked.Add(1)
		if err != nil || n != 1 {
			d.tally.fail("%s: touched %d, err %v", stmt, n, err)
			continue
		}
		out = append(out, writeSample{done: done,
			latencyMs: ms(done.Sub(due)), lateMs: ms(sentAt.Sub(due))})
	}
}

// selfCPU is this process's CPU time so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
