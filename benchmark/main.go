// Command perfbench is the repository's process-level benchmark. It
// builds the cmd/ binaries, drives them as real processes over files and
// a loopback socket, checks their outputs, and prints the metrics of one
// workload; the last line of its output is a JSON result. Run it from
// the repository root:
//
//	bash benchmark/run.sh --workload analyze-100k --seed 42 --seconds 25 --trace 0
//	bash benchmark/run.sh compare A.ndjson B.ndjson
//
// With --trace 1 it instead reports per-layer metrics: the processes run
// for half the time, and an in-process replay of the same layers, with
// spans around each call, runs for the other half and writes trace.json.
// README.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark workload. A run calls setup (repeatedly, with
// close in between), measure, replay when traced, verify, and close.
type workload interface {
	// setup prepares the inputs, and the server where there is one. Its
	// time is setup_s.
	setup(ctx context.Context) error
	// measure runs the processes under test until the deadline (at least
	// one iteration), checking each output as it goes.
	measure(ctx context.Context, until time.Time) error
	// replay performs one iteration of the layers the processes go
	// through, in-process and in their order, with spans on tr.
	replay(tr *tracer, req int) error
	// verify runs the checks that need the whole run.
	verify(ctx context.Context) error
	// close stops anything setup started; it may be called again.
	close() error
	// endToEnd returns the timed operations; perLayer returns the
	// workload's own per-layer numbers, those not taken from spans.
	endToEnd() ops
	perLayer() map[string]float64
}

var workloads = []struct {
	name string
	make func(*env) workload
}{
	{"analyze-100k", newAnalyze100k},
	{"trace-1m", newTrace1m},
	{"serve-live", newServeLive},
	{"whatif-sweep", newWhatifSweep},
}

// errInvalid marks a run whose load generator could not keep its
// schedule: the measurement is void, not slow.
var errInvalid = errors.New("invalid run")

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 42, "seed every input derives from")
	seconds := flag.Int("seconds", 25, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run and writes trace.json")
	appendTo := flag.String("append", "", "also append the result, tagged with workload and seed, to this NDJSON file (the input of compare)")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive, -trace 0 or 1, and no arguments follow the flags")
		os.Exit(2)
	}
	newWorkload := lookup(*name)
	if newWorkload == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root or benchmark/: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	build := filepath.Join(root, ".bench_build")
	e := &env{
		bin:     filepath.Join(build, "bin"),
		work:    filepath.Join(build, "work", *name),
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		scale:   fullScale,
		traced:  *traced == 1,
	}
	tracePath := filepath.Join(build, "trace", *name, "trace.json")
	err = os.MkdirAll(e.bin, 0o755)
	if err == nil {
		err = buildTools(ctx, root, e.bin)
	}
	var res result
	if err == nil {
		res, err = run(ctx, e, newWorkload, *name, tracePath, os.Stdout)
	}
	if err == nil && *appendTo != "" {
		err = appendResult(*appendTo, *name, *seed, *traced, res)
	}
	switch {
	case errors.Is(err, errInvalid):
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(3)
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	case !res.Correct:
		os.Exit(1)
	}
}

// repoRoot returns the working directory, or its parent when run from
// benchmark/ (as go run . does), provided it holds the cmd/ sources.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err = os.Stat(filepath.Join(dir, "cmd", "tsubame-serve")); err == nil {
			return dir, nil
		}
	}
	return "", err
}

func lookup(name string) func(*env) workload {
	for _, w := range workloads {
		if w.name == name {
			return w.make
		}
	}
	return nil
}

// run runs one workload in e with the binaries already built, printing
// its metric table and, last, the JSON result to out. A result is printed
// whenever the workload got as far as measuring.
func run(ctx context.Context, e *env, newWorkload func(*env) workload, name, tracePath string, out io.Writer) (result, error) {
	if err := os.RemoveAll(e.work); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(e.work)

	w := newWorkload(e)
	defer w.close()
	metrics, err := drive(ctx, e, w, name, tracePath, out)
	if err != nil && metrics == nil {
		return result{}, err
	}
	res := result{
		Correct:   err == nil && e.tally.failed == 0,
		Attempted: e.tally.attempted,
		Failed:    e.tally.failed,
		Metrics:   metrics,
	}
	fmt.Fprintf(out, "workload %s  seed %d  trace %t  operations %d  failed %d\n", name, e.seed, e.traced, res.Attempted, res.Failed)
	for _, p := range e.tally.problems {
		fmt.Fprintln(out, "  problem:", p)
	}
	printTable(out, metrics)
	line, merr := json.Marshal(res)
	if merr != nil {
		return res, merr
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, err
}

// drive performs the run's phases and returns its metrics. After the
// measurement has run, a failed check still returns the metrics with
// the error.
func drive(ctx context.Context, e *env, w workload, name, tracePath string, out io.Writer) (map[string]metric, error) {
	// Cheap set-ups repeat more often, so that their median is as steady
	// as an expensive one's.
	var setups []float64
	var spent time.Duration
	for len(setups) < e.scale.setups || (spent < e.scale.setupBudget && len(setups) < maxSetups) {
		if len(setups) > 0 {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	measureFor := e.seconds
	if e.traced {
		measureFor /= 2
	}
	if err := w.measure(ctx, time.Now().Add(measureFor)); err != nil {
		return nil, err
	}
	var tr *tracer
	var overhead float64
	if e.traced {
		tr = newTracer()
		var err error
		if overhead, err = replayLoop(w, tr, time.Now().Add(e.seconds/2)); err != nil {
			return nil, e.tally.record(fmt.Errorf("replay: %w", err))
		}
	}
	verr := w.verify(ctx)
	if err := w.close(); err != nil && verr == nil {
		verr = err
	}
	if !e.traced {
		return endToEndMetrics(w.endToEnd(), setups), verr
	}
	if err := tr.write(tracePath, name, e.seed, overhead); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "trace: %s (%d spans, tracing overhead %+.2f%% of the replay)\n", tracePath, len(tr.spans), 100*overhead)
	return perLayerMetrics(w.perLayer(), tr.durations()), verr
}

// replayLoop alternates untraced and traced replays until the deadline
// (at least one of each) and returns the tracing overhead: the traced
// replays' median time over the untraced ones', minus one.
func replayLoop(w workload, tr *tracer, until time.Time) (float64, error) {
	var plain, traced []float64
	for req := 0; req == 0 || time.Now().Before(until); req++ {
		start := time.Now()
		if err := w.replay(nil, req); err != nil {
			return 0, err
		}
		plain = append(plain, time.Since(start).Seconds())
		start = time.Now()
		if err := w.replay(tr, req); err != nil {
			return 0, err
		}
		traced = append(traced, time.Since(start).Seconds())
	}
	return median(traced)/median(plain) - 1, nil
}

func printTable(out io.Writer, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// appendResult adds the result as one tagged line to an NDJSON file.
func appendResult(path, name string, seed int64, traced int, res result) error {
	line, err := json.Marshal(taggedResult{Workload: name, Seed: seed, Trace: traced, result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
