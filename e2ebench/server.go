package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fedserver is one launched server process.
type fedserver struct {
	cmd   *exec.Cmd
	base  string // http://addr
	log   *os.File
	args  []string
	setup time.Duration // launch to first 200 from /healthz
	exit  chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch starts bin with args plus a fresh loopback address and waits for
// /healthz to answer 200; fedserver listens only once its index is ready.
func launch(ctx context.Context, bin, logPath string, args []string) (*fedserver, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args = append(append([]string(nil), args...), "-addr", addr)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start fedserver: %w", err)
	}
	s := &fedserver{cmd: cmd, base: "http://" + addr, log: logf, args: args, exit: make(chan error, 1)}
	go func() { s.exit <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-s.exit:
			s.exit <- err
			s.stop()
			return nil, fmt.Errorf("fedserver exited during set-up (%v); see %s", err, logPath)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the server to shut down, kills it if it has not exited within
// the grace period, and waits for it.
func (s *fedserver) stop() {
	defer s.log.Close()
	select {
	case err := <-s.exit:
		s.exit <- err
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is caught below
	select {
	case err := <-s.exit:
		s.exit <- err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill() // Wait below reaps it either way
		err := <-s.exit
		s.exit <- err
	}
}

// cpuTime reads the process's user+system CPU time from /proc/<pid>/stat.
func (s *fedserver) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	const ticksPerSec = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSec, nil
}

// cpuMarks samples the process's CPU time at each of parts equal
// sub-window boundaries after start, returning first followed by those
// samples, or fewer when a read fails or ctx ends.
func (s *fedserver) cpuMarks(ctx context.Context, first time.Duration, start, end time.Time, parts int) []time.Duration {
	marks := []time.Duration{first}
	sub := end.Sub(start) / time.Duration(parts)
	for k := 1; k <= parts; k++ {
		select {
		case <-time.After(time.Until(start.Add(time.Duration(k) * sub))):
		case <-ctx.Done():
			return marks
		}
		t, err := s.cpuTime()
		if err != nil {
			return marks
		}
		marks = append(marks, t)
	}
	return marks
}

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func (s *fedserver) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// scrape reads the server's /metrics exposition into name{labels} → value.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is end−start for one metric series.
func delta(start, end map[string]float64, name string) float64 { return end[name] - start[name] }

// buildServer compiles cmd/fedserver from the checkout at root.
func buildServer(root, out string) (string, error) {
	bin := filepath.Join(out, "bin", "fedserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/fedserver")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build fedserver: %w", err)
	}
	return bin, nil
}
