// Command tsubame-diff compares two periods of one system's failure
// history — before and after a maintenance intervention, driver upgrade,
// or practice change — with the statistics to say whether reliability
// genuinely moved: failure-rate ratio, Mann-Whitney shift tests on the
// TBF and TTR distributions, and the category-share drift.
//
// Usage:
//
//	tsubame-diff -system t2 -split 2012-10-01
//	tsubame-diff -before old.csv -after new.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/textreport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsubame-diff: ")
	var (
		systemName = flag.String("system", "t2", "system to synthesize when no files are given: t2 or t3")
		seed       = flag.Int64("seed", 42, "synthetic log seed")
		splitStr   = flag.String("split", "", "split date YYYY-MM-DD for single-log mode (default: midpoint)")
		beforePath = flag.String("before", "", "before-period log file (csv, ndjson, or tsbc)")
		afterPath  = flag.String("after", "", "after-period log file (csv, ndjson, or tsbc)")
		alpha      = flag.Float64("alpha", 0.05, "significance level for the improvement verdict")
		manifest   = cli.ManifestFlag()
	)
	flag.Parse()
	cli.CheckFlags(
		cli.FractionInOpenUnit("alpha", *alpha),
		cli.KnownSystem("system", *systemName),
	)
	run, err := cli.StartRun("tsubame-diff", *manifest, "")
	if err != nil {
		log.Fatal(err)
	}

	before, after, err := loadPeriods(*beforePath, *afterPath, *systemName, *seed, *splitStr)
	if err != nil {
		cli.FatalLoad(err)
	}
	if m := run.Manifest(); m != nil {
		m.AddSeed(*seed)
		m.SetRecordCount("before_records", before.Len())
		m.SetRecordCount("after_records", after.Len())
	}
	d, err := core.DiffPeriods(before, after)
	if err != nil {
		log.Fatal(err)
	}

	textreport.Diff(os.Stdout, before.System(), d, *alpha)
	if err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}

func loadPeriods(beforePath, afterPath, systemName string, seed int64, splitStr string) (before, after *failures.Log, err error) {
	if beforePath != "" || afterPath != "" {
		if beforePath == "" || afterPath == "" {
			return nil, nil, fmt.Errorf("supply both -before and -after, or neither")
		}
		before, err = cli.LoadLog(beforePath, "", 0)
		if err != nil {
			return nil, nil, err
		}
		after, err = cli.LoadLog(afterPath, "", 0)
		if err != nil {
			return nil, nil, err
		}
		return before, after, nil
	}
	full, err := cli.LoadLog("", systemName, seed)
	if err != nil {
		return nil, nil, err
	}
	if splitStr == "" {
		before, after = full.SplitFraction(0.5)
		return before, after, nil
	}
	at, err := time.Parse("2006-01-02", splitStr)
	if err != nil {
		return nil, nil, fmt.Errorf("bad -split: %w", err)
	}
	before, after = full.SplitAt(at)
	return before, after, nil
}
