// Reliability runs the extension analyses that go beyond the paper's
// figures: per-GPU-card Kaplan-Meier survival (the card-lifetime view of
// the paper's reference [11]), rack-level failure concentration (the
// related-work observation that rack non-uniformity carries over to
// multi-GPU nodes), and rolling MTBF across each system's life.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)

	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := core.Compare(t2, t3)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(report.SurvivalTable(cmp.Old, cmp.New))
	fmt.Println()
	fmt.Print(report.SpatialTable(cmp.Old))
	fmt.Println()
	fmt.Print(report.SpatialTable(cmp.New))
	fmt.Println()

	for _, entry := range []struct {
		name string
		l    *failures.Log
	}{
		{"Tsubame-2", t2},
		{"Tsubame-3", t3},
	} {
		series, err := core.RollingMTBF(entry.l, 90, 45)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(report.RollingChart(
			fmt.Sprintf("Rolling 90-day MTBF on %s (extension).", entry.name), series))
		fmt.Println()
	}

	// The survival gap restates the paper's headline GPU reliability
	// improvement as a per-card probability.
	if cmp.Old.Survival != nil && cmp.New.Survival != nil {
		fmt.Printf("A Tsubame-3 card's first-year no-failure probability is %.1f%% vs %.1f%% on Tsubame-2.\n\n",
			100*cmp.New.Survival.SurvivalAtOneYear, 100*cmp.Old.Survival.SurvivalAtOneYear)
	}

	// Honest prediction intervals for the next failure (the actionable
	// form of "leveraging failure prediction"): a leakage-free back-test
	// of rolling distribution fits.
	for _, level := range []float64{0.5, 0.8, 0.9} {
		ev, err := predict.EvaluateIntervals(t2, level)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Next-failure %2.0f%% interval on Tsubame-2: observed coverage %.1f%% over %d predictions, mean width %.1f h.\n",
			100*level, 100*ev.ObservedCoverage(), ev.Predictions, ev.MeanWidthHours)
	}
}
