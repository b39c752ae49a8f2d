// Command tsubame-gen generates calibrated synthetic failure logs for the
// Tsubame-2 and Tsubame-3 supercomputers and writes them as CSV, NDJSON,
// or the binary columnar .tsbc format (docs/TRACE-FORMAT.md).
//
// Usage:
//
//	tsubame-gen -system t2 -seed 42 -format csv -out tsubame2.csv
//	tsubame-gen -system t3 -format tsbc -out tsubame3.tsbc
//	tsubame-gen -system t3 -format ndjson        # stdout
//	tsubame-gen -system t2 -runs 16 -out 'run-%d.csv'  # seeds 42..57, in parallel
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/cli"
	"repro/internal/failures"
	"repro/internal/parallel"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsubame-gen: ")
	var (
		systemName    = flag.String("system", "t2", "system to generate: t2 or t3")
		seed          = flag.Int64("seed", 42, "deterministic generator seed (first seed with -runs > 1)")
		runs          = flag.Int("runs", 1, "logs to generate with consecutive seeds; -out must contain %d")
		parallelism   = flag.Int("parallel", 0, "worker-pool width for -runs > 1 (0 = all cores, 1 = sequential)")
		format        = flag.String("format", "", "output format: csv, ndjson, or tsbc (default: from -out extension, else csv)")
		out           = flag.String("out", "", "output file (default stdout); with -runs > 1, a pattern containing %d for the seed")
		profilePath   = flag.String("profile", "", "custom calibration profile JSON (overrides -system)")
		exportDefault = flag.Bool("export-profile", false, "print the -system profile as JSON and exit (starting point for -profile)")
		manifest      = cli.ManifestFlag()
		debugAddr     = cli.DebugAddrFlag()
	)
	flag.Parse()
	cli.CheckFlags(
		cli.PositiveInt("runs", *runs),
		cli.NonNegativeInt("parallel", *parallelism),
		cli.KnownSystem("system", *systemName),
	)
	// The output format follows the -out extension (also with -runs,
	// whose pattern keeps the extension); unrecognized or absent
	// extensions keep the historical CSV default.
	outFormat := cli.DetectFormat(*format, strings.TrimSuffix(*out, ".gz"))
	if outFormat == "auto" {
		outFormat = "csv"
	}
	run, err := cli.StartRun("tsubame-gen", *manifest, *debugAddr)
	if err != nil {
		log.Fatal(err)
	}
	if m := run.Manifest(); m != nil {
		m.AddSeedRange(*seed, *runs)
		m.PoolWidth = parallel.Width(*parallelism, *runs)
	}

	if *runs > 1 {
		if err := generateRuns(run, *profilePath, *systemName, *seed, *runs, *parallelism, outFormat, *out); err != nil {
			log.Fatal(err)
		}
		if err := run.Finish(); err != nil {
			log.Fatal(err)
		}
		return
	}

	failureLog, err := buildLog(run, *profilePath, *systemName, *seed, *exportDefault)
	if err != nil {
		log.Fatal(err)
	}
	if failureLog == nil {
		return // -export-profile already printed
	}
	if m := run.Manifest(); m != nil {
		m.SetRecordCount("records", failureLog.Len())
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
	if err := cli.WriteLog(w, failureLog, outFormat); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d %v failures to %s\n", failureLog.Len(), failureLog.System(), *out)
	}
	if err := run.Finish(); err != nil {
		log.Fatal(err)
	}
}

// generateRuns produces runs logs with consecutive seeds, streaming each
// log from the generating worker straight into its output file: peak
// memory is one log per pool worker rather than one per seed, and Ctrl-C
// stops launching new seeds (files already written stay on disk).
func generateRuns(run *cli.Run, profilePath, systemName string, firstSeed int64, runs, parallelism int, format, out string) error {
	if !strings.Contains(out, "%d") {
		return fmt.Errorf("-runs %d needs -out containing %%d for the seed (got %q)", runs, out)
	}
	profile, err := resolveProfile(run, profilePath, systemName)
	if err != nil {
		return err
	}
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = firstSeed + int64(i)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var (
		total, logs atomic.Int64
		stderrMu    sync.Mutex // interleave whole lines, not fragments
	)
	err = synth.GenerateEach(ctx, profile, seeds, parallelism, func(i int, failureLog *failures.Log) error {
		name := fmt.Sprintf(out, seeds[i])
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := cli.WriteLog(f, failureLog, format); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		total.Add(int64(failureLog.Len()))
		logs.Add(1)
		stderrMu.Lock()
		fmt.Fprintf(os.Stderr, "wrote %d %v failures to %s\n", failureLog.Len(), failureLog.System(), name)
		stderrMu.Unlock()
		return nil
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted after %d of %d logs", logs.Load(), runs)
		}
		return err
	}
	if m := run.Manifest(); m != nil {
		m.SetRecordCount("records", int(total.Load()))
		m.SetRecordCount("logs", int(logs.Load()))
	}
	fmt.Fprintf(os.Stderr, "generated %d logs (seeds %d..%d) with parallelism %d\n",
		runs, firstSeed, firstSeed+int64(runs)-1, parallel.Width(parallelism, runs))
	return nil
}

// resolveProfile loads the custom profile file or the built-in profile of
// the named system, stamping the choice into the run manifest.
func resolveProfile(run *cli.Run, profilePath, systemName string) (*synth.Profile, error) {
	profile, err := loadProfile(profilePath, systemName)
	if err != nil {
		return nil, err
	}
	if m := run.Manifest(); m != nil {
		m.Profile = profile.Name
	}
	return profile, nil
}

func loadProfile(profilePath, systemName string) (*synth.Profile, error) {
	if profilePath != "" {
		f, err := os.Open(profilePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return synth.ReadProfile(f)
	}
	sys, err := cli.ParseSystem(systemName)
	if err != nil {
		return nil, err
	}
	return synth.ProfileFor(sys)
}

// buildLog resolves the generation source: a custom profile file, or the
// built-in profile of the named system. With exportDefault it prints the
// built-in profile as JSON to stdout and returns a nil log.
func buildLog(run *cli.Run, profilePath, systemName string, seed int64, exportDefault bool) (*failures.Log, error) {
	if exportDefault {
		sys, err := cli.ParseSystem(systemName)
		if err != nil {
			return nil, err
		}
		profile, err := synth.ProfileFor(sys)
		if err != nil {
			return nil, err
		}
		return nil, synth.WriteProfile(os.Stdout, profile)
	}
	profile, err := resolveProfile(run, profilePath, systemName)
	if err != nil {
		return nil, err
	}
	return synth.Generate(profile, seed)
}
