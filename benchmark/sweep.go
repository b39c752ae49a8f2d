package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/sweep"
)

// sweepHorizon is the what-if grid's simulated span: a decade.
const sweepHorizon = 87_600

// whatifSweep is the planner's what-if path: a closed loop of
// tsubame-sweep -parallel 2 over a fixed 1024-cell grid. The simulators
// and the sweep pool do the work; trace, index and core do none.
type whatifSweep struct {
	e      *env
	grid   sweep.Grid
	ref    []byte // the report of the -parallel 1 set-up run
	sweeps procSet
	ops    ops
	runs   int
}

func newWhatifSweep(e *env) workload {
	g := sweep.Grid{
		Systems:       []string{"t2", "t3"},
		CkptIntervals: []float64{0, 24},
		Spares:        []int{-1, 2},
		Accuracies:    []float64{0, 0.5},
		Policies:      []string{"none", "reactive", "predictive", "batch"},
	}
	for i := range e.scale.sweepSeeds {
		g.Seeds = append(g.Seeds, e.seed+int64(i))
	}
	return &whatifSweep{e: e, grid: g}
}

// params are the sweep-wide values the CLI run uses: its flag defaults,
// the decade horizon, and the run's seed for the fitted log.
func (w *whatifSweep) params() sweep.Params {
	return sweep.Params{
		HorizonHours:        sweepHorizon,
		Crews:               8,
		LeadTimeHours:       72,
		AlarmWindowHours:    24,
		CheckpointCostHours: 0.1,
		RestartCostHours:    0.2,
		BatchWindowHours:    168,
		LogSeed:             w.e.seed,
		MinCount:            10,
	}
}

// sweepOnce runs the CLI over the grid into a fresh directory and returns
// the merged report.
func (w *whatifSweep) sweepOnce(ctx context.Context, parallel int) (proc, []byte, error) {
	g := w.grid
	dir := w.e.path(fmt.Sprintf("sweep-%d", w.runs))
	w.runs++
	defer os.RemoveAll(dir)
	p, err := w.e.run(ctx, io.Discard, "tsubame-sweep",
		"-systems", strings.Join(g.Systems, ","),
		"-ckpt-intervals", joinValues(g.CkptIntervals),
		"-spares", joinValues(g.Spares),
		"-accuracy", joinValues(g.Accuracies),
		"-policies", strings.Join(g.Policies, ","),
		"-seeds", fmt.Sprint(len(g.Seeds)),
		"-seed", fmt.Sprint(w.e.seed),
		"-log-seed", fmt.Sprint(w.e.seed),
		"-horizon", fmt.Sprint(sweepHorizon),
		"-parallel", fmt.Sprint(parallel),
		"-out", dir)
	if err != nil {
		return proc{}, nil, err
	}
	report, err := os.ReadFile(filepath.Join(dir, sweep.ReportName))
	return p, report, err
}

func joinValues[T int | float64](xs []T) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// setup makes the reference report with one worker; every repetition
// must reproduce it.
func (w *whatifSweep) setup(ctx context.Context) error {
	_, report, err := w.sweepOnce(ctx, 1)
	if err != nil {
		return err
	}
	if w.ref != nil {
		w.e.check(bytes.Equal(report, w.ref), "-parallel 1 sweep reports differ between set-ups")
	}
	w.ref = report
	return nil
}

func (w *whatifSweep) measure(ctx context.Context, until time.Time) error {
	for first := true; first || time.Now().Before(until); first = false {
		p, report, err := w.sweepOnce(ctx, 2)
		if err != nil {
			return err
		}
		w.sweeps.add(p)
		w.ops.add(p)
		w.e.check(bytes.Equal(report, w.ref), "-parallel 2 sweep report differs from the -parallel 1 run")
	}
	return nil
}

func (w *whatifSweep) verify(context.Context) error { return nil }

// replay builds the evaluator and runs every cell in grid order, as one
// sweep worker would, and checks the results against the CLI's report.
func (w *whatifSweep) replay(tr *tracer, req int) error {
	root := tr.begin("sweep.run", -1, req)
	defer tr.end(root)
	var ev *sweep.Evaluator
	if err := tr.do("sweep.new_evaluator", root, req, func() (err error) {
		ev, err = sweep.NewEvaluator(w.params(), w.grid.Systems)
		return err
	}); err != nil {
		return err
	}
	var report bytes.Buffer
	for _, cell := range w.grid.Cells() {
		name := "remediate.cell"
		if cell.Policy == "none" {
			name = "sim.cell"
		}
		var res sweep.Result
		if err := tr.do(name, root, req, func() (err error) {
			res, err = ev.Run(cell)
			return err
		}); err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		report.Write(append(line, '\n'))
	}
	w.e.check(bytes.Equal(report.Bytes(), w.ref), "in-process sweep replay differs from the CLI report")
	return nil
}

func (w *whatifSweep) close() error { return nil }

func (w *whatifSweep) endToEnd() ops { return w.ops }

func (w *whatifSweep) perLayer() map[string]float64 {
	return map[string]float64{
		"cmd.sweep_s":    median(w.sweeps.wallSeconds()),
		"sweep.cpu_util": w.sweeps.cpuUtil(2),
	}
}
