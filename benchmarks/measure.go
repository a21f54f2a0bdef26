package main

import (
	"fmt"
	"os"
	"time"
)

// slice is the stretch of traffic between two probes of the host (see
// hostspeed.go). It is short because the host's speed changes within a
// second and a probe is a sample of it: with a probe every quarter of a
// second the same code measured minutes apart agreed within 4–6 %, with
// one every second within 8–10 %, and with none within 20–30 %.
const slice = 250 * time.Millisecond

// warmFor is how long a peer's traffic runs before its slices start.
const warmFor = time.Second

// mark is the state of both processes at one end of a slice.
type mark struct {
	at      time.Time
	peerCPU float64
	genCPU  float64
}

// window is one slice: the traffic between two pauses, with the host's
// speed as probed during those pauses.
type window struct {
	from, to mark
	speed    hostSpeed
}

// measure runs the deployment's traffic for warmFor (discarded) and then
// for n slices. Between slices the readers are paused — reads in flight
// drain first — and the host is probed; the pauses belong to no slice. The
// open-loop writer keeps its schedule through them.
func (d *deployment) measure(n int) (traffic, []window, error) {
	stop := make(chan struct{})
	done := make(chan struct{})
	var tr traffic
	go func() {
		tr = d.run(stop)
		close(done)
	}()
	time.Sleep(warmFor)
	var firstErr error
	take := func() mark {
		u, err := readUsage(d.peer.cmd.Process.Pid)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return mark{at: time.Now(), peerCPU: u.cpuSeconds, genCPU: selfCPU()}
	}
	windows := make([]window, 0, n)
	var from mark
	var before hostProbe
	for i := 0; i <= n; i++ {
		d.pause.Lock()
		to := take()
		probe := probeHost()
		if i > 0 {
			windows = append(windows, window{from: from, to: to, speed: speedBetween(before, probe)})
		}
		from, before = take(), probe
		d.pause.Unlock()
		if i < n {
			time.Sleep(slice)
		}
	}
	close(stop)
	<-done
	return tr, windows, firstErr
}

// ledgerTime accumulates a run's slices, every time already scaled to the
// reference host: elapsed times by the speed the host's clock showed for
// the reference computation around the slice, CPU times by the speed its
// CPU clock showed. Rates are totals over the reference time that passed,
// percentiles are taken over all scaled latencies of the run.
type ledgerTime struct {
	slices, idle   int     // idle: slices in which no read completed
	hostSecs, secs float64 // measured time on this host, and on the reference host
	reads, rows    int
	total, first   []float64 // read latencies, ms
	wlat, wlate    []float64 // write latency from due, and how late it was sent, ms
	peerCPUms      float64   // on the reference host
	hostPeerCPU    float64   // on this host, s
	hostGenCPU     float64
}

func (l *ledgerTime) add(tr traffic, windows []window) {
	for _, w := range windows {
		in := func(at time.Time) bool { return !at.Before(w.from.at) && !at.After(w.to.at) }
		reads := 0
		for _, r := range tr.reads {
			if in(r.done) {
				reads++
				l.rows += r.rows
				l.total = append(l.total, r.totalMs*w.speed.wall)
				l.first = append(l.first, r.firstMs*w.speed.wall)
			}
		}
		for _, wr := range tr.writes {
			if in(wr.done) {
				l.wlat = append(l.wlat, wr.latencyMs*w.speed.wall)
				l.wlate = append(l.wlate, wr.lateMs*w.speed.wall)
			}
		}
		l.slices++
		if reads == 0 {
			l.idle++
		}
		l.reads += reads
		secs := w.to.at.Sub(w.from.at).Seconds()
		l.hostSecs += secs
		l.secs += secs * w.speed.wall
		l.hostPeerCPU += w.to.peerCPU - w.from.peerCPU
		l.hostGenCPU += w.to.genCPU - w.from.genCPU
		l.peerCPUms += (w.to.peerCPU - w.from.peerCPU) * 1000 * w.speed.cpu
	}
}

// metrics computes the windowed metrics of the run into m.
func (l *ledgerTime) metrics(m map[string]float64) {
	m["qps"] = float64(l.reads) / l.secs
	m["rows_per_s"] = float64(l.rows) / l.secs
	m["read_p50_ms"] = percentile(l.total, 50)
	m["read_p95_ms"] = percentile(l.total, 95)
	m["diag.read_p99_ms"] = percentile(l.total, 99)
	m["first_row_p50_ms"] = percentile(l.first, 50)
	m["peer_cpu_ms_per_op"] = l.peerCPUms / float64(l.reads+len(l.wlat))
	m["diag.gen_cpu_share"] = l.hostGenCPU / (l.hostGenCPU + l.hostPeerCPU)
	m["diag.host_speed"] = l.secs / l.hostSecs
	// Achieved against the 50/s offered, so in seconds of this host.
	m["diag.writes_per_s"] = float64(len(l.wlat)) / l.hostSecs
	// Zero on read-only workloads.
	m["diag.write_p50_ms"] = percentile(l.wlat, 50)
	m["diag.write_p95_ms"] = percentile(l.wlat, 95)
	m["diag.write_late_p95_ms"] = percentile(l.wlate, 95)
}

// e2eResult is one end-to-end pass over one workload.
type e2eResult struct {
	attempted int
	failed    int
	notes     []string
	metrics   map[string]float64
}

// runE2E measures one workload against real axmlpeer processes: peers
// fresh peers in turn, each set up (the median set-up time is reported),
// warmed up, and measured for its share of the window. No tracing of any
// kind is on. Several peers rather than one, because a process's luck
// with memory layout and thread placement lasts as long as the process.
func runE2E(e *env, wl *workload, window time.Duration, peers int) (*e2eResult, error) {
	fx, err := newFixture(e, wl)
	if err != nil {
		return nil, err
	}
	t := &tally{}
	perPeer := int(window / time.Duration(peers) / slice)
	if perPeer < 1 {
		perPeer = 1
	}
	var lt ledgerTime
	m := map[string]float64{}
	var setupTimes []float64
	for k := 0; k < peers; k++ {
		d, took, err := deploy(e, fx, t)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took)
		if err := d.observe(perPeer, &lt, m); err != nil {
			_ = d.close()
			return nil, err
		}
		if err := d.close(); err != nil {
			t.fail("shutdown: %v", err)
		}
	}
	if 2*lt.idle > lt.slices {
		return nil, fmt.Errorf("%s: no read completed in %d of %d slices: %v", wl.name, lt.idle, lt.slices, t.notes)
	}
	lt.metrics(m)
	fmt.Fprintf(os.Stderr, "%s: host ran at %.2f of the reference host's speed over %d slices\n",
		wl.name, m["diag.host_speed"], lt.slices)
	m["setup_s"] = median(setupTimes)
	m["diag.build_s"] = e.buildS
	if m["peer.epochs.pinned_at_end"] != 0 {
		t.fail("%v snapshot epochs still pinned after the run", m["peer.epochs.pinned_at_end"])
	}
	if m["wire.streams_aborted"] != 0 {
		t.fail("%v streams aborted", m["wire.streams_aborted"])
	}
	return &e2eResult{
		attempted: int(t.attempted.Load()),
		failed:    int(t.failed.Load()),
		notes:     t.notes,
		metrics:   m,
	}, nil
}

// observe measures one deployment: its slices go into lt, and what only
// the peer can say about itself — counters behind STATS, /proc — goes into
// m, overwriting an earlier peer's.
func (d *deployment) observe(n int, lt *ledgerTime, m map[string]float64) error {
	pid := d.peer.cmd.Process.Pid
	before, err := d.stats()
	if err != nil {
		return err
	}
	usage0, err := readUsage(pid)
	if err != nil {
		return err
	}
	tr, windows, err := d.measure(n)
	if err != nil {
		return err
	}
	after, err := d.stats()
	if err != nil {
		return err
	}
	usage1, err := readUsage(pid)
	if err != nil {
		return err
	}
	lt.add(tr, windows)

	// These cover everything after set-up, warm-up included: they are
	// ratios of counters, and STATS cannot be cut to the window without
	// a further connection open during it.
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	rows, snapshots, stale := 0, 0, 0
	for _, r := range tr.reads {
		rows += r.rows
		if r.snapshot {
			snapshots++
		}
		if r.stale {
			stale++
		}
	}
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	hits, misses := delta("session.plan_cache.hits"), delta("session.plan_cache.misses")
	m["session.plan_cache.hit_rate"] = ratio(hits, hits+misses)
	m["wire.reply_bytes_per_row"] = ratio(float64(usage1.wchar-usage0.wchar), float64(rows))
	m["diag.snapshot_stale_share"] = ratio(float64(stale), float64(snapshots))
	m["diag.peer_rss_peak_mb"] = usage1.rssPeakMB
	m["peer.epochs.pinned_at_end"] = float64(after.Gauges["peer.epochs.pinned"])
	m["wire.streams_aborted"] = float64(after.Gauges["wire.streams_aborted"])
	return nil
}
