// Command tsubame-report regenerates every table and figure of the paper
// from the calibrated synthetic logs (or from two supplied logs), in paper
// order: Tables I-III and Figures 2-12 plus the performance-error-
// proportionality analysis.
//
// Usage:
//
//	tsubame-report                      # synthetic logs, seed 42
//	tsubame-report -seed 7
//	tsubame-report -t2 old.csv -t3 new.tsbc  # any of csv, ndjson, tsbc (.gz too)
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/report"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsubame-report: ")
	var (
		seed       = flag.Int64("seed", 42, "seed for the synthetic logs")
		t2Path     = flag.String("t2", "", "Tsubame-2 log: csv, ndjson or tsbc, optionally .gz (default: synthetic)")
		t3Path     = flag.String("t3", "", "Tsubame-3 log: csv, ndjson or tsbc, optionally .gz (default: synthetic)")
		markdown   = flag.Bool("markdown", false, "emit a markdown document instead of text plots")
		extensions = flag.Bool("extensions", false, "append the extension analyses (drift, spatial, survival, rolling MTBF)")
		manifest   = cli.ManifestFlag()
	)
	flag.Parse()
	run, err := cli.StartRun("tsubame-report", *manifest, "")
	if err != nil {
		log.Fatal(err)
	}

	t2, t3, err := loadLogs(*seed, *t2Path, *t3Path)
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := core.Compare(t2, t3)
	if err != nil {
		log.Fatal(err)
	}
	if m := run.Manifest(); m != nil {
		m.AddSeed(*seed)
		m.SetRecordCount("t2_records", t2.Len())
		m.SetRecordCount("t3_records", t3.Len())
	}
	if *markdown {
		fmt.Print(report.MarkdownReport(cmp))
		if err := run.Finish(); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(report.FullReport(cmp))
	if *extensions {
		fmt.Println()
		fmt.Println(report.DriftTable(cmp))
		fmt.Println(report.SurvivalTable(cmp.Old, cmp.New))
		fmt.Println(report.SpatialTable(cmp.Old))
		fmt.Println(report.SpatialTable(cmp.New))
		for _, entry := range []struct {
			name string
			l    *failures.Log
		}{{"Tsubame-2", t2}, {"Tsubame-3", t3}} {
			if series, err := core.RollingMTBF(entry.l, 90, 45); err == nil {
				fmt.Print(report.RollingChart("Rolling 90-day MTBF on "+entry.name+".", series))
				fmt.Println()
			}
		}
	}
	if err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}

func loadLogs(seed int64, t2Path, t3Path string) (t2, t3 *failures.Log, err error) {
	if t2Path == "" && t3Path == "" {
		return synth.GenerateBoth(seed)
	}
	if t2Path == "" || t3Path == "" {
		return nil, nil, fmt.Errorf("supply both -t2 and -t3, or neither")
	}
	t2, err = cli.LoadLogFile(t2Path)
	if err != nil {
		return nil, nil, err
	}
	t3, err = cli.LoadLogFile(t3Path)
	if err != nil {
		return nil, nil, err
	}
	return t2, t3, nil
}
