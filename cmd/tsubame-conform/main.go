// Command tsubame-conform runs the statistical conformance battery: it
// generates synthetic logs across a seed set and checks every published
// statistic of the paper against them, emitting a JSON report. A non-zero
// exit means the calibration no longer reproduces the paper; CI runs this
// on every change (docs/VALIDATION.md describes the checks).
//
// Usage:
//
//	tsubame-conform -system t2                    # human summary + exit code
//	tsubame-conform -system both -out report.json # archive the JSON report
//	tsubame-conform -system t3 -seeds 64 -v       # wider seed set, per-check lines
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cli"
	"repro/internal/conform"
	"repro/internal/parallel"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsubame-conform: ")
	var (
		systemName  = flag.String("system", "both", "system to check: t2, t3, or both")
		seeds       = flag.Int("seeds", 32, "independent generator seeds to aggregate over")
		firstSeed   = flag.Int64("seed", 1, "first seed of the consecutive seed set")
		parallelism = flag.Int("parallel", 0, "generation worker-pool width (0 = all cores, 1 = sequential)")
		alpha       = flag.Float64("alpha", 0.01, "per-seed significance of hypothesis-test checks")
		budget      = flag.Float64("budget", 1e-3, "family false-alarm budget across test checks")
		pooledAlpha = flag.Float64("pooled-alpha", 1e-3, "significance of pooled hypothesis tests")
		profilePath = flag.String("profile", "", "custom calibration profile JSON (overrides -system)")
		out         = flag.String("out", "", "write the JSON report here (default: summary only)")
		verbose     = flag.Bool("v", false, "print one line per check")
		manifest    = cli.ManifestFlag()
		debugAddr   = cli.DebugAddrFlag()
	)
	flag.Parse()
	cli.CheckFlags(
		cli.PositiveInt("seeds", *seeds),
		cli.NonNegativeInt("parallel", *parallelism),
		cli.FractionInOpenUnit("alpha", *alpha),
		cli.FractionInOpenUnit("budget", *budget),
		cli.FractionInOpenUnit("pooled-alpha", *pooledAlpha),
		checkSystem(*systemName),
	)
	run, err := cli.StartRun("tsubame-conform", *manifest, *debugAddr)
	if err != nil {
		log.Fatal(err)
	}
	if m := run.Manifest(); m != nil {
		m.AddSeedRange(*firstSeed, *seeds)
		m.PoolWidth = parallel.Width(*parallelism, *seeds)
	}

	profiles, err := resolveProfiles(*profilePath, *systemName)
	if err != nil {
		log.Fatal(err)
	}

	seedSet := make([]int64, *seeds)
	for i := range seedSet {
		seedSet[i] = *firstSeed + int64(i)
	}
	opts := conform.Options{
		Seeds:       seedSet,
		Parallelism: *parallelism,
		Alpha:       *alpha,
		Budget:      *budget,
		PooledAlpha: *pooledAlpha,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	allPass := true
	var reports []*conform.Report
	for _, p := range profiles {
		rep, err := conform.Evaluate(ctx, p, opts)
		if err != nil {
			log.Fatal(err)
		}
		reports = append(reports, rep)
		if *verbose {
			printChecks(rep)
		}
		fmt.Println(rep.Summary())
		if m := run.Manifest(); m != nil {
			m.SetRecordCount("checks:"+rep.System, len(rep.Checks))
			m.SetRecordCount("failed:"+rep.System, len(rep.Failed()))
		}
		if !rep.Pass {
			allPass = false
		}
	}

	if *out != "" {
		if err := writeReports(*out, reports); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d report(s) to %s\n", len(reports), *out)
	}
	if err := run.Finish(); err != nil {
		log.Fatal(err)
	}
	if !allPass {
		os.Exit(1)
	}
}

// resolveProfiles loads the custom profile, or the built-in profile(s) of
// the named system ("both" checks the two generations in sequence).
func resolveProfiles(profilePath, systemName string) ([]*synth.Profile, error) {
	if profilePath != "" {
		f, err := os.Open(profilePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		p, err := synth.ReadProfile(f)
		if err != nil {
			return nil, err
		}
		return []*synth.Profile{p}, nil
	}
	if strings.EqualFold(systemName, "both") {
		return []*synth.Profile{synth.Tsubame2Profile(), synth.Tsubame3Profile()}, nil
	}
	sys, err := cli.ParseSystem(systemName)
	if err != nil {
		return nil, err
	}
	p, err := synth.ProfileFor(sys)
	if err != nil {
		return nil, err
	}
	return []*synth.Profile{p}, nil
}

// checkSystem pre-validates -system, which also accepts "both".
func checkSystem(name string) error {
	if strings.EqualFold(name, "both") {
		return nil
	}
	return cli.KnownSystem("system", name)
}

func printChecks(rep *conform.Report) {
	for _, c := range rep.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		line := fmt.Sprintf("%-6s %-28s [%s] %s", status, c.Name, c.Kind, c.Anchor)
		if !c.Pass && c.Detail != "" {
			line += " — " + c.Detail
		}
		fmt.Println(line)
	}
}

// writeReports serializes the reports as a JSON array (a single report
// for -system t2/t3, two for both).
func writeReports(path string, reports []*conform.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
