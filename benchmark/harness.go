package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tools are the cmd/ binaries the workloads drive as processes.
var tools = []string{
	"tsubame-gen", "tsubame-analyze", "tsubame-fit", "tsubame-convert",
	"tsubame-digest", "tsubame-serve", "tsubame-sweep",
}

// buildTools compiles the workloads' binaries from the checkout at root
// into dir. It is not timed: a warm build cache makes it a staleness check.
// A cold build leaves a hundred megabytes or more of cache unwritten, so it
// flushes them before anything is measured.
func buildTools(ctx context.Context, root, dir string) error {
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, t := range tools {
		args = append(args, "./cmd/"+t)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the cmd/ binaries: %v\n%s", err, out)
	}
	syscall.Sync()
	return nil
}

// scale sizes every workload; fullScale is the benchmark, smokeScale the
// reduced one the package test runs through the same code.
type scale struct {
	// logFactor and traceFactor multiply every count of the Tsubame-3
	// profile (338 records): 296 gives the 100,048-record log, 2960 the
	// 1,000,480-record trace.
	logFactor, traceFactor int
	// sweepSeeds is the seed axis of the what-if grid; 16 seeds make the
	// 1024-cell grid.
	sweepSeeds int
	// setups is how many times a run at least repeats its set-up, and
	// setupBudget how long it keeps repeating it (up to maxSetups times);
	// setup_s is the median.
	setups      int
	setupBudget time.Duration
}

const maxSetups = 9

var (
	fullScale  = scale{logFactor: 296, traceFactor: 2960, sweepSeeds: 16, setups: 3, setupBudget: 2 * time.Second}
	smokeScale = scale{logFactor: 30, traceFactor: 30, sweepSeeds: 1, setups: 2}
)

// env is what every workload shares: where the binaries and scratch files
// live, the seed its inputs derive from, and the operation tally.
type env struct {
	bin     string // built cmd/ binaries
	work    string // scratch directory of this run, removed afterwards
	seed    int64
	seconds time.Duration // the run's measured length
	scale   scale
	traced  bool
	tally   tally
}

// tally counts attempted and failed operations. A failed operation is a
// process exiting non-zero, a request answered with an unexpected status,
// or an output that fails its correctness check.
// The open loop's connections record into it concurrently.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	problems          []string
}

// record counts one operation and keeps err's message when it failed.
func (t *tally) record(err error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.problems) < 20 {
			t.problems = append(t.problems, err.Error())
		}
	}
	return err
}

func (e *env) path(name string) string { return filepath.Join(e.work, name) }

// proc is one finished process under test: wall time from start to exit,
// CPU time (user+system) and peak resident set size from rusage.
type proc struct {
	wall, cpu time.Duration
	maxRSS    int64 // bytes
}

func procOf(state *os.ProcessState, wall time.Duration) proc {
	p := proc{wall: wall, cpu: state.UserTime() + state.SystemTime()}
	if ru, ok := state.SysUsage().(*syscall.Rusage); ok {
		p.maxRSS = ru.Maxrss << 10 // Linux reports KiB
	}
	return p
}

// run executes one tool to completion, writing its standard output to
// stdout, and counts it in the tally.
func (e *env) run(ctx context.Context, stdout io.Writer, tool string, args ...string) (proc, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, tool), args...)
	cmd.Stdout = stdout
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return proc{}, e.tally.record(fmt.Errorf("%s %s: %v: %s", tool, strings.Join(args, " "), err, strings.TrimSpace(stderr.String())))
	}
	e.tally.record(nil)
	return procOf(cmd.ProcessState, wall), nil
}

// check counts a correctness check as one operation.
func (e *env) check(ok bool, format string, args ...any) {
	if ok {
		e.tally.record(nil)
		return
	}
	e.tally.record(fmt.Errorf("check failed: "+format, args...))
}

// procSet accumulates the processes of one tool across a run.
type procSet struct{ runs []proc }

func (s *procSet) add(p proc) { s.runs = append(s.runs, p) }

func (s *procSet) wallSeconds() []float64 {
	out := make([]float64, len(s.runs))
	for i, p := range s.runs {
		out[i] = p.wall.Seconds()
	}
	return out
}

// cpuUtil is CPU time over wall time times width, summed over the runs:
// the share of width cores the tool kept busy.
func (s *procSet) cpuUtil(width int) float64 {
	var cpu, wall time.Duration
	for _, p := range s.runs {
		cpu += p.cpu
		wall += p.wall
	}
	if wall == 0 {
		return 0
	}
	return cpu.Seconds() / (wall.Seconds() * float64(width))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of xs (the mean of the middle two for an even
// count), NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, NaN when xs is empty.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-quantile of xs (p in (0, 1]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// the spreads compare prints match a check made with Python. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
