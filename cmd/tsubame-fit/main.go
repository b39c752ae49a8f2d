// Command tsubame-fit fits parametric models to a failure log's
// inter-arrival and recovery distributions, per category and system-wide,
// reporting KS distance and AIC per family. It is the distribution-
// modelling companion to tsubame-analyze: its output feeds simulator
// configurations and capacity-planning spreadsheets.
//
// All samples (system-wide and per-category, TBF and TTR) are fitted
// concurrently on a bounded worker pool; the report order is fixed.
//
// Usage:
//
//	tsubame-fit -system t2            # fit the synthetic Tsubame-2 log
//	tsubame-fit -in mylog.csv         # fit a supplied log
package main

import (
	"flag"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/parallel"
	"repro/internal/textreport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsubame-fit: ")
	var (
		systemName = flag.String("system", "t2", "system to synthesize when no -in is given: t2 or t3")
		seed       = flag.Int64("seed", 42, "synthetic log seed")
		in         = flag.String("in", "", "input log: csv, ndjson, or tsbc, by extension or sniffed (default: synthetic)")
		minCount   = flag.Int("min", 10, "minimum records for a per-category fit")
		para       = flag.Int("parallel", 0, "fit worker-pool width (0 = all cores, 1 = sequential)")
		manifest   = cli.ManifestFlag()
	)
	flag.Parse()
	cli.CheckFlags(
		cli.PositiveInt("min", *minCount),
		cli.NonNegativeInt("parallel", *para),
		cli.KnownSystem("system", *systemName),
	)
	run, err := cli.StartRun("tsubame-fit", *manifest, "")
	if err != nil {
		log.Fatal(err)
	}

	failureLog, err := cli.LoadLog(*in, *systemName, *seed)
	if err != nil {
		cli.FatalLoad(err)
	}
	if m := run.Manifest(); m != nil {
		m.AddSeed(*seed)
		m.PoolWidth = parallel.Width(*para, 0)
		m.SetRecordCount("records", failureLog.Len())
	}

	textreport.Fit(os.Stdout, failureLog, *minCount, *para)
	if err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}
