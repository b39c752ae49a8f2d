// Command tsubame-digest produces an operations digest for a time slice
// of a failure log: the view an operations team would review in a weekly
// or monthly meeting. It summarizes the period's failures, recovery
// statistics, worst offenders, active multi-GPU alarm state, and how the
// period compares with the log's history.
//
// Columnar .tsbc inputs are digested in a streaming pass that holds one
// block (~8k records) in memory at a time, so the digest of a 100M-record
// trace needs the same memory as a 100k-record one. CSV and NDJSON inputs
// are materialized as before. The output is byte-identical either way.
//
// Usage:
//
//	tsubame-digest -system t2 -from 2012-06-01 -days 30
//	tsubame-digest -in mylog.csv -from 2019-01-01 -days 7
//	tsubame-digest -in trace.tsbc -days 7 -quantiles
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/textreport"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsubame-digest: ")
	var (
		systemName = flag.String("system", "t2", "system to synthesize when no -in is given: t2 or t3")
		seed       = flag.Int64("seed", 42, "synthetic log seed")
		in         = flag.String("in", "", "input log: csv, ndjson, or tsbc, by extension or sniffed (default: synthetic)")
		fromStr    = flag.String("from", "", "period start, YYYY-MM-DD (default: 30 days before log end)")
		days       = flag.Int("days", 30, "period length in days")
		quantiles  = flag.Bool("quantiles", false, "add a recovery-quantile line (mean/sd/p50/p90/p99) from streaming sketches")
		manifest   = cli.ManifestFlag()
	)
	flag.Parse()
	cli.CheckFlags(
		cli.PositiveInt("days", *days),
		cli.KnownSystem("system", *systemName),
	)
	run, err := cli.StartRun("tsubame-digest", *manifest, "")
	if err != nil {
		log.Fatal(err)
	}
	opts := core.DigestOptions{Quantiles: *quantiles}

	// .tsbc inputs stream: a cheap stats skim fixes the default period,
	// then a second pass feeds the accumulator block by block.
	if *in != "" {
		if format := digestStreaming(run, *in, *fromStr, *days, opts); format == "tsbc" {
			return
		}
	}

	failureLog, err := cli.LoadLog(*in, *systemName, *seed)
	if err != nil {
		cli.FatalLoad(err)
	}
	if m := run.Manifest(); m != nil {
		if *in == "" {
			m.AddSeed(*seed)
		}
		m.SetRecordCount("records", failureLog.Len())
	}
	from := textreport.DefaultDigestFrom(failureLog, *days)
	if *fromStr != "" {
		from = parseFrom(*fromStr)
	}

	periodRecords, err := textreport.DigestOpts(os.Stdout, failureLog, from, *days, opts)
	if err != nil {
		log.Fatal(err)
	}
	finishRun(run, periodRecords)
}

// digestStreaming runs the constant-memory digest when path holds a
// .tsbc trace and returns "tsbc"; for any other format it returns that
// format without consuming the input, and the caller materializes the
// log. Errors never return.
func digestStreaming(run *cli.Run, path, fromStr string, days int, opts core.DigestOptions) string {
	r, format, closeFn, err := cli.OpenLog(path)
	if err != nil {
		cli.FatalLoad(err)
	}
	if format != "tsbc" {
		closeFn()
		return format
	}
	stats, err := trace.ReadTSBCStats(r)
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	if err != nil {
		cli.FatalLoad(err)
	}
	if m := run.Manifest(); m != nil {
		m.SetRecordCount("records", stats.Records)
	}
	from := textreport.DefaultDigestStart(stats.End, days)
	if fromStr != "" {
		from = parseFrom(fromStr)
	}

	r, _, closeFn, err = cli.OpenLog(path)
	if err != nil {
		cli.FatalLoad(err)
	}
	br, err := trace.NewBlockReader(r)
	if err != nil {
		closeFn()
		cli.FatalLoad(err)
	}
	periodRecords, err := textreport.StreamDigest(os.Stdout, br, from, days, opts)
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	finishRun(run, periodRecords)
	return "tsbc"
}

func parseFrom(fromStr string) time.Time {
	from, err := time.Parse("2006-01-02", fromStr)
	if err != nil {
		log.Fatalf("bad -from: %v", err)
	}
	return from
}

func finishRun(run *cli.Run, periodRecords int) {
	if m := run.Manifest(); m != nil {
		m.SetRecordCount("period_records", periodRecords)
	}
	if err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}
