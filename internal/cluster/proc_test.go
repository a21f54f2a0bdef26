package cluster

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// Harness spawns real axmlpeer OS processes for federation tests: a
// built binary, -addr 127.0.0.1:0 listeners, and an -addr-file
// handshake for deterministic readiness (no port guessing, no
// sleep-and-hope).
type Harness struct {
	dir string
	bin string

	mu    sync.Mutex
	procs []*Proc
}

// NewHarness builds the axmlpeer binary once into dir (usually a test
// temp dir) and returns a harness that spawns it.
func NewHarness(dir string) (*Harness, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(dir, "axmlpeer")
	cmd := exec.Command("go", "build", "-o", bin, "axml/cmd/axmlpeer")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("cluster: building axmlpeer: %v\n%s", err, out)
	}
	return &Harness{dir: dir, bin: bin}, nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("cluster: no go.mod above the working directory")
		}
		dir = parent
	}
}

// PeerSpec describes one process to spawn.
type PeerSpec struct {
	// ID is the peer/member identity (also names the addr file).
	ID string
	// Docs installs documents: name → XML content (written to disk for
	// the process).
	Docs map[string]string
	// Coordinator runs the process as the cluster coordinator.
	Coordinator bool
	// Round is the coordinator's self-stepping interval (0 = rounds
	// only on x:step).
	Round time.Duration
	// Join is the coordinator address a member registers with.
	Join string
	// Heartbeat overrides the member's x:hello interval.
	Heartbeat time.Duration
	// ExtraArgs are appended verbatim.
	ExtraArgs []string
}

// Proc is one running axmlpeer process.
type Proc struct {
	ID   string
	Addr string

	cmd  *exec.Cmd
	done chan struct{}

	mu  sync.Mutex
	out bytes.Buffer
}

// lockedBuffer serializes process output writes with Output reads.
type lockedBuffer struct{ p *Proc }

func (b lockedBuffer) Write(data []byte) (int, error) {
	b.p.mu.Lock()
	defer b.p.mu.Unlock()
	return b.p.out.Write(data)
}

// Output returns everything the process wrote so far (stdout+stderr).
func (p *Proc) Output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// Stop asks the process to shut down gracefully (SIGTERM) and waits up
// to timeout before killing it. The error reports a forced kill.
func (p *Proc) Stop(timeout time.Duration) error {
	select {
	case <-p.done:
		return nil
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return nil
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("cluster: %s did not exit within %s; killed", p.ID, timeout)
	}
}

// Kill terminates the process immediately (the member-dies-mid-flight
// fault injection).
func (p *Proc) Kill() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Kill()
	<-p.done
}

// Exited reports whether the process has terminated.
func (p *Proc) Exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Start spawns one axmlpeer process per the spec and waits until it is
// listening (its actual address appears in the -addr-file).
func (h *Harness) Start(spec PeerSpec) (*Proc, error) {
	addrFile := filepath.Join(h.dir, spec.ID+".addr")
	_ = os.Remove(addrFile)
	args := []string{
		"-addr", "127.0.0.1:0",
		"-id", spec.ID,
		"-addr-file", addrFile,
		"-log-level", "debug",
	}
	for name, content := range spec.Docs {
		file := filepath.Join(h.dir, spec.ID+"-"+name+".xml")
		if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
			return nil, err
		}
		args = append(args, "-doc", name+"="+file)
	}
	if spec.Coordinator {
		args = append(args, "-coordinator")
		if spec.Round > 0 {
			args = append(args, "-round", spec.Round.String())
		}
	}
	if spec.Join != "" {
		args = append(args, "-join", spec.Join)
		if spec.Heartbeat > 0 {
			args = append(args, "-hb", spec.Heartbeat.String())
		}
	}
	args = append(args, spec.ExtraArgs...)

	p := &Proc{ID: spec.ID, done: make(chan struct{})}
	p.cmd = exec.Command(h.bin, args...)
	p.cmd.Stdout = lockedBuffer{p}
	p.cmd.Stderr = lockedBuffer{p}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("cluster: starting %s: %w", spec.ID, err)
	}
	go func() {
		_ = p.cmd.Wait()
		close(p.done)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(data)) > 0 {
			p.Addr = string(bytes.TrimSpace(data))
			break
		}
		if p.Exited() {
			return nil, fmt.Errorf("cluster: %s exited before listening:\n%s", spec.ID, p.Output())
		}
		if time.Now().After(deadline) {
			p.Kill()
			return nil, fmt.Errorf("cluster: %s never published its address:\n%s", spec.ID, p.Output())
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.mu.Lock()
	h.procs = append(h.procs, p)
	h.mu.Unlock()
	return p, nil
}

// Close stops every process the harness started (graceful first,
// forced after 5s).
func (h *Harness) Close() {
	h.mu.Lock()
	procs := h.procs
	h.procs = nil
	h.mu.Unlock()
	for _, p := range procs {
		_ = p.Stop(5 * time.Second)
	}
}
