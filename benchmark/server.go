package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is a running tsubame-serve process.
type server struct {
	cmd    *exec.Cmd
	addr   string // host:port of the API
	debug  string // host:port of /debug/, empty unless started with -debug-addr
	start  time.Time
	exited chan struct{}
	err    error // Wait's result, set before exited closes
	stderr *lineWatch
}

// startServer launches tsubame-serve for Tsubame-3 records retaining at
// most maxRecords, with the debug endpoint when debug is set, and waits
// until it (and the debug endpoint) is ready.
func (e *env) startServer(ctx context.Context, maxRecords int, debug bool) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-system", "t3", "-max-records", fmt.Sprint(maxRecords)}
	if debug {
		args = append(args, "-debug-addr", "127.0.0.1:0")
	}
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "tsubame-serve"), args...)
	stdout := newLineWatch("listening on http://")
	stderr := newLineWatch("debug endpoints on http://")
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting tsubame-serve: %w", err)
	}
	s := &server{cmd: cmd, start: time.Now(), exited: make(chan struct{}), stderr: stderr}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	wait := func(w *lineWatch) (string, error) {
		select {
		case line := <-w.found:
			return line, nil
		case <-s.exited:
			return "", fmt.Errorf("tsubame-serve exited before it was ready: %v: %s", s.err, strings.TrimSpace(stderr.String()))
		case <-time.After(30 * time.Second):
			return "", errors.New("tsubame-serve not ready after 30s")
		}
	}
	var err error
	if s.addr, err = wait(stdout); err == nil && debug {
		var line string
		line, err = wait(stderr)
		s.debug = strings.TrimSuffix(line, "/debug/")
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop sends SIGTERM, waits for the drain (killing the process after 15s)
// and returns its rusage over its whole life. An exit other than the
// clean one is an error.
func (s *server) stop() (proc, error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	if s.err != nil {
		return proc{}, fmt.Errorf("tsubame-serve: %v: %s", s.err, strings.TrimSpace(s.stderr.String()))
	}
	return procOf(s.cmd.ProcessState, time.Since(s.start)), nil
}

// lineWatch keeps a process's output and delivers the rest of the first
// line that contains marker.
type lineWatch struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	marker []byte
	found  chan string
	sent   bool
}

func newLineWatch(marker string) *lineWatch {
	return &lineWatch{marker: []byte(marker), found: make(chan string, 1)}
}

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if i := bytes.Index(w.buf.Bytes(), w.marker); i >= 0 {
			rest := w.buf.Bytes()[i+len(w.marker):]
			if j := bytes.IndexByte(rest, '\n'); j >= 0 {
				w.found <- string(rest[:j])
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *lineWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}
