// Command tsubame-sweep grid-searches the paper's operational levers —
// checkpoint interval, spare-pool size, failure-prediction accuracy —
// across system profiles and seeds, on a bounded worker pool. Results
// are written as resumable sharded NDJSON: one shard per worker plus a
// manifest of completed cells, merged into a deterministic
// SWEEP_report.ndjson. An interrupted sweep (Ctrl-C, SIGKILL, crash)
// re-run with -resume skips completed cells and produces a final report
// byte-identical to an uninterrupted run.
//
// Usage:
//
//	tsubame-sweep -out sweep.d -systems t2,t3 -ckpt-intervals 0,24,168 \
//	    -spares -1,0,2 -accuracy 0,0.5,0.9 -seeds 8
//	tsubame-sweep -out sweep.d -resume    # continue after an interruption
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/cli"
	"repro/internal/parallel"
	"repro/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsubame-sweep: ")
	var (
		systems    = flag.String("systems", "t2", "comma-separated system profiles: t2, t3")
		intervals  = flag.String("ckpt-intervals", "0", "comma-separated checkpoint intervals in hours (0 = Young/Daly optimum)")
		sparesList = flag.String("spares", "-1", "comma-separated per-category spare stocks (-1 = unlimited)")
		accuracy   = flag.String("accuracy", "0", "comma-separated prediction accuracies in [0,1) (0 = no proactive recovery)")
		policies   = flag.String("policies", "none", "comma-separated remediation policies: none, reactive, predictive, batch")
		batchWin   = flag.Float64("batch-window", 168, "maintenance-window cadence of batch policy cells in hours")
		seeds      = flag.Int("seeds", 4, "seeds per scenario (consecutive from -seed)")
		seed       = flag.Int64("seed", 42, "first simulation seed")
		logSeed    = flag.Int64("log-seed", 42, "seed of the synthetic log the processes are fitted from")
		horizon    = flag.Float64("horizon", 8760, "simulated hours per cell")
		crews      = flag.Int("crews", 8, "repair crews (0 = unlimited)")
		lead       = flag.Float64("lead", 72, "spare delivery lead time in hours")
		alarmHours = flag.Float64("alarm", 24, "proactive alarm window in hours")
		ckptCost   = flag.Float64("ckpt-cost", 0.1, "checkpoint write cost in hours")
		restart    = flag.Float64("restart-cost", 0.2, "restart cost in hours")
		outDir     = flag.String("out", "", "sweep directory for shards, manifest, and report (required)")
		resume     = flag.Bool("resume", false, "skip cells recorded in an existing manifest")
		para       = flag.Int("parallel", 0, "worker-pool width (0 = all cores)")
		manifest   = cli.ManifestFlag()
		debugAddr  = cli.DebugAddrFlag()
	)
	flag.Parse()

	grid := sweep.Grid{Systems: splitList(*systems)}
	var errIntervals, errSpares, errAcc error
	grid.CkptIntervals, errIntervals = parseFloats("ckpt-intervals", *intervals)
	grid.Spares, errSpares = parseInts("spares", *sparesList)
	grid.Accuracies, errAcc = parseFloats("accuracy", *accuracy)
	grid.Policies = splitList(*policies)
	for i := 0; i < *seeds; i++ {
		grid.Seeds = append(grid.Seeds, *seed+int64(i))
	}
	checks := []error{
		errIntervals, errSpares, errAcc,
		cli.RequiredString("out", *outDir),
		cli.PositiveInt("seeds", *seeds),
		cli.NonNegativeInt("parallel", *para),
		cli.PositiveFloat("horizon", *horizon),
		cli.NonNegativeInt("crews", *crews),
		cli.PositiveFloat("lead", *lead),
		cli.PositiveFloat("alarm", *alarmHours),
		cli.PositiveFloat("ckpt-cost", *ckptCost),
		cli.NonNegativeFloat("restart-cost", *restart),
		cli.PositiveFloat("batch-window", *batchWin),
		grid.Validate(),
	}
	for _, s := range grid.Systems {
		checks = append(checks, cli.KnownSystem("systems", s))
	}
	cli.CheckFlags(checks...)

	obsRun, err := cli.StartRun("tsubame-sweep", *manifest, *debugAddr)
	if err != nil {
		log.Fatal(err)
	}
	if m := obsRun.Manifest(); m != nil {
		m.AddSeedRange(*seed, *seeds)
		// Workers pull whole scenarios: cells that differ only in
		// checkpoint interval share one simulation.
		m.PoolWidth = parallel.Width(*para, grid.Size()/len(grid.CkptIntervals))
		m.SetRecordCount("cells", grid.Size())
	}

	// Ctrl-C stops launching new cells; completed cells stay on disk and
	// a -resume re-run picks up where this one stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	report, err := sweep.Run(ctx, sweep.RunnerConfig{
		Grid: grid,
		Params: sweep.Params{
			HorizonHours:        *horizon,
			Crews:               *crews,
			LeadTimeHours:       *lead,
			AlarmWindowHours:    *alarmHours,
			CheckpointCostHours: *ckptCost,
			RestartCostHours:    *restart,
			BatchWindowHours:    *batchWin,
			LogSeed:             *logSeed,
			MinCount:            10,
		},
		OutDir:      *outDir,
		Parallelism: *para,
		Resume:      *resume,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatal("interrupted; completed cells are saved, re-run with -resume to continue")
		}
		log.Fatal(err)
	}

	fmt.Printf("Swept %d cells (%d systems x %d intervals x %d spare levels x %d accuracies x %d policies x %d seeds).\n",
		grid.Size(), len(grid.Systems), len(grid.CkptIntervals), len(grid.Spares),
		len(grid.Accuracies), len(grid.Policies), len(grid.Seeds))
	fmt.Printf("Report: %s\n", report)
	if err := obsRun.Finish(); err != nil {
		log.Fatal(err)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseFloats(name, s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad value %q", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(name, s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad value %q", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}
