// Quickstart: generate the calibrated synthetic failure logs for both
// Tsubame generations, run the paper's analysis battery, and print the
// headline cross-generation findings.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)

	// Every log is deterministic in its seed: rerunning reproduces the
	// identical records and therefore identical figures.
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Generated %d Tsubame-2 failures and %d Tsubame-3 failures.\n\n", t2.Len(), t3.Len())

	cmp, err := core.Compare(t2, t3)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's four headline observations.
	fmt.Printf("1. GPU failures dominate Tsubame-2 (%.1f%%); software dominates Tsubame-3 (%.1f%%).\n",
		topShare(cmp.Old), topShare(cmp.New))
	fmt.Printf("2. System MTBF improved %.1fx (%.1f h -> %.1f h).\n",
		cmp.MTBFImprovement, cmp.Old.TBF.MTBFHours, cmp.New.TBF.MTBFHours)
	fmt.Printf("3. MTTR did not improve: %.1f h vs %.1f h (ratio %.2f).\n",
		cmp.Old.TTR.MTTRHours, cmp.New.TTR.MTTRHours, cmp.MTTRRatio)
	fmt.Printf("4. Useful work per failure-free period grew %.1fx (performance-error-proportionality).\n\n",
		cmp.PEPRatio)

	fmt.Print(report.Summary(cmp))
}

func topShare(s *core.Study) float64 {
	if len(s.Breakdown) == 0 {
		return 0
	}
	return s.Breakdown[0].Percent
}
