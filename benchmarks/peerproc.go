package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildPeer compiles cmd/axmlpeer of the checkout at root into dir and
// returns the binary's path and how long the build took.
func buildPeer(root, dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "axmlpeer")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/axmlpeer")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/axmlpeer: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// peerProc is one running axmlpeer child: the system under test.
type peerProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
	waitEr error
}

// startPeer spawns axmlpeer serving peer "store" on an OS-chosen loopback
// port and waits until it has written its listen address. docs are -doc
// specs (name=file[@peer]). dir receives the address file.
func startPeer(bin, dir string, docs []string) (*peerProc, error) {
	addrFile := filepath.Join(dir, fmt.Sprintf("addr-%d", time.Now().UnixNano()))
	args := []string{"-addr", "127.0.0.1:0", "-id", "store",
		"-addr-file", addrFile, "-log-level", "error"}
	for _, d := range docs {
		args = append(args, "-doc", d)
	}
	p := &peerProc{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start axmlpeer: %w", err)
	}
	go func() {
		p.waitEr = p.cmd.Wait()
		close(p.exited)
	}()
	defer os.Remove(addrFile)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			p.addr = strings.TrimSpace(string(data))
			return p, nil
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("axmlpeer exited during start-up: %v\n%s", p.waitEr, p.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			_ = p.stop()
			return nil, errors.New("axmlpeer did not report its address within 20s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop asks the peer to shut down with SIGTERM and waits for it to exit.
// A peer that ignores SIGTERM for 10 seconds is killed, and that is
// reported as an error: graceful shutdown is part of what is checked.
func (p *peerProc) stop() error {
	select {
	case <-p.exited:
		return nil
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
		return nil
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return errors.New("axmlpeer did not exit on SIGTERM; killed")
	}
}

// procUsage is what /proc says about a process at one instant.
type procUsage struct {
	cpuSeconds float64 // utime+stime
	wchar      int64   // bytes passed to write(2) and friends
	rssPeakMB  float64 // VmHWM
}

// userHz is the unit of the utime/stime fields of /proc/<pid>/stat. It
// is 100 on every Linux ABI Go supports.
const userHz = 100

func readUsage(pid int) (procUsage, error) {
	var u procUsage
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, so 12 and 13 after ") ".
	i := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 14 {
		return u, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("unexpected /proc/%d/stat times", pid)
	}
	u.cpuSeconds = (utime + stime) / userHz
	if io, err := os.ReadFile(filepath.Join(dir, "io")); err == nil {
		u.wchar = procField(io, "wchar:")
	}
	if status, err := os.ReadFile(filepath.Join(dir, "status")); err == nil {
		u.rssPeakMB = float64(procField(status, "VmHWM:")) / 1024
	}
	return u, nil
}

// procField returns the integer following key in a "key: value" file.
func procField(data []byte, key string) int64 {
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}
