// Command tsubame-convert transcodes a failure log between the supported
// trace formats: CSV, NDJSON, and the binary columnar .tsbc format
// (docs/TRACE-FORMAT.md). The input format is auto-detected from the file
// extension or the leading bytes; the output format comes from the -out
// extension, or -format when writing to stdout. ".gz" on either side adds
// transparent gzip. The conversion is lossless: converting to .tsbc and
// back reproduces the original byte for byte (the round trip the
// convert-smoke CI job checks).
//
// Usage:
//
//	tsubame-convert -in tsubame2.csv -out tsubame2.tsbc
//	tsubame-convert -in trace.tsbc -format ndjson          # stdout
//	tsubame-convert -in site.ndjson.gz -out site.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/failures"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsubame-convert: ")
	var (
		in       = flag.String("in", "", "input log: csv, ndjson, or tsbc, by extension or sniffed (default stdin)")
		out      = flag.String("out", "", "output file, format from extension, .gz for gzip (default stdout)")
		format   = flag.String("format", "", "output format: csv, ndjson, or tsbc (default: from -out extension; required for stdout)")
		manifest = cli.ManifestFlag()
	)
	flag.Parse()
	outFormat := cli.DetectFormat(*format, strings.TrimSuffix(*out, ".gz"))
	cli.CheckFlags(
		outputFormatKnown(outFormat, *out),
	)
	run, err := cli.StartRun("tsubame-convert", *manifest, "")
	if err != nil {
		log.Fatal(err)
	}

	failureLog, inFormat, err := readInput(*in)
	if err != nil {
		cli.FatalLoad(err)
	}
	if m := run.Manifest(); m != nil {
		m.SetRecordCount("records", failureLog.Len())
	}

	if err := writeOutput(*out, outFormat, failureLog); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "converted %d records: %s -> %s (%s)\n",
			failureLog.Len(), inFormat, outFormat, *out)
	}
	if err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}

// outputFormatKnown rejects the one unresolvable case — no -format and
// no recognizable -out extension — as a usage error (exit 2).
func outputFormatKnown(outFormat, out string) error {
	if outFormat != "auto" {
		return nil
	}
	if out == "" {
		return fmt.Errorf("-format is required when writing to stdout")
	}
	return fmt.Errorf("cannot infer output format from %q; name one with -format", out)
}

func readInput(in string) (failureLog *failures.Log, format string, err error) {
	if in == "" {
		return cli.ReadLogDetect(os.Stdin, "auto")
	}
	var r io.Reader
	var closeFn func() error
	r, format, closeFn, err = cli.OpenLog(in)
	if err != nil {
		return nil, "", err
	}
	failureLog, err = cli.ReadLog(r, format)
	if cerr := closeFn(); err == nil && cerr != nil {
		err = cerr
	}
	return failureLog, format, err
}

// writeOutput writes the log in the resolved format (it may disagree
// with the extension when -format overrides), to stdout when out is
// empty.
func writeOutput(out, format string, failureLog *failures.Log) error {
	if out == "" {
		return cli.WriteLog(os.Stdout, failureLog, format)
	}
	return cli.WriteLogFileFormat(out, failureLog, format)
}
