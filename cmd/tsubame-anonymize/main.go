// Command tsubame-anonymize scrubs a failure log for sharing: node
// identities are remapped by a keyed pseudorandom permutation (stable
// under the same key, unlinkable across keys), and optionally the
// free-text software causes are dropped and occurrence times coarsened to
// whole days. It is the transform a center applies before releasing a log
// like the ones this repository reproduces — the paper's dataset section
// cites exactly this business-sensitivity constraint.
//
// Usage:
//
//	tsubame-anonymize -in site.csv -key $SECRET -out public.csv
//	tsubame-anonymize -in site.csv -key $SECRET -drop-causes -coarsen-times
package main

import (
	"flag"
	"io"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/failures"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsubame-anonymize: ")
	var (
		in         = flag.String("in", "", "input log (default stdin)")
		out        = flag.String("out", "", "output file (default stdout)")
		format     = flag.String("format", "", "format: csv, ndjson, or tsbc (default: from extension, else sniffed)")
		key        = flag.String("key", "", "pseudonymization key (required)")
		dropCauses = flag.Bool("drop-causes", false, "remove software root-locus annotations")
		coarsen    = flag.Bool("coarsen-times", false, "truncate occurrence times to whole days")
		manifest   = cli.ManifestFlag()
	)
	flag.Parse()
	cli.CheckFlags(
		cli.RequiredString("key", *key),
	)
	run, err := cli.StartRun("tsubame-anonymize", *manifest, "")
	if err != nil {
		log.Fatal(err)
	}

	var r io.Reader = os.Stdin
	name := "stdin"
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
		name = *in
	}
	// ReadLogDetect resolves "auto" to the sniffed format so the output
	// side stays symmetric with the input.
	failureLog, fmtName, err := cli.ReadLogDetect(r, cli.DetectFormat(*format, name))
	if err != nil {
		cli.FatalLoad(err)
	}
	if m := run.Manifest(); m != nil {
		m.SetRecordCount("records", failureLog.Len())
	}

	anon, err := failures.Anonymize(failureLog, failures.AnonymizeOptions{
		Key:                *key,
		DropSoftwareCauses: *dropCauses,
		CoarsenTimes:       *coarsen,
	})
	if err != nil {
		log.Fatal(err)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := cli.WriteLog(w, anon, fmtName); err != nil {
		log.Fatal(err)
	}
	if err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}
