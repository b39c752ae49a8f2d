// Fieldstudy reproduces the paper end to end: it generates both systems'
// calibrated logs, persists them in the portable CSV schema (the shape an
// operator's real log would take), reads them back, and regenerates every
// table and figure in paper order.
//
// Run with -outdir to keep the CSV logs for inspection.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	var (
		seed   = flag.Int64("seed", 42, "generator seed")
		outdir = flag.String("outdir", "", "directory for the CSV logs (default: temp, removed afterwards)")
	)
	flag.Parse()

	dir := *outdir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "tsubame-fieldstudy")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}

	// Stage 1: collect the "field data".
	t2, t3, err := synth.GenerateBoth(*seed)
	if err != nil {
		log.Fatal(err)
	}
	t2Path := filepath.Join(dir, "tsubame2.csv")
	t3Path := filepath.Join(dir, "tsubame3.csv")
	if err := writeCSV(t2Path, t2); err != nil {
		log.Fatal(err)
	}
	if err := writeCSV(t3Path, t3); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d records) and %s (%d records)\n", t2Path, t2.Len(), t3Path, t3.Len())

	// Stage 2: the analysis pipeline consumes the serialized logs exactly
	// as it would consume real ones.
	t2Back, err := cli.LoadLogFile(t2Path)
	if err != nil {
		log.Fatal(err)
	}
	t3Back, err := cli.LoadLogFile(t3Path)
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := core.Compare(t2Back, t3Back)
	if err != nil {
		log.Fatal(err)
	}

	// Stage 3: regenerate the paper.
	fmt.Print(report.FullReport(cmp))

	// Stage 4: the predictors the paper's implications call for.
	ev, err := predict.EvaluateLocality(t2Back, 72)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTemporal-locality prediction of multi-GPU failures (Figure 8 implication):\n")
	fmt.Printf("  recall %.0f%% with the alarm up %.0f%% of the time (lift %.1fx over random).\n",
		100*ev.Recall(), 100*ev.AlarmFraction(), ev.Lift())
}

func writeCSV(path string, l *failures.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteCSV(f, l); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
