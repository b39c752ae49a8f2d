// Whatif runs a counterfactual the paper's RQ3 discussion invites: the
// collapse of simultaneous multi-GPU failures on Tsubame-3 (92.6% single-
// GPU vs Tsubame-2's 30%) is credited to operational practice — health
// tests and proactive replacements — not hardware. What would Tsubame-3
// have looked like *without* those practices? We clone the Tsubame-3
// calibration, give it Tsubame-2's multi-GPU involvement behaviour, and
// re-run the analyses.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)

	actual, err := synth.GenerateSystem(failures.Tsubame3, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Counterfactual calibration: Tsubame-2's involvement mix (extended
	// with a 4-GPU tail) and its stronger temporal clustering.
	profile := synth.Tsubame3Profile()
	profile.Name = "tsubame3-no-health-tests"
	profile.GPUInvolvementPMF = []float64{0.3044, 0.3478, 0.2478, 0.10}
	profile.ClusterFraction = 0.55
	counterfactual, err := synth.Generate(profile, 42)
	if err != nil {
		log.Fatal(err)
	}

	actualStudy, err := core.NewStudy(actual)
	if err != nil {
		log.Fatal(err)
	}
	cfStudy, err := core.NewStudy(counterfactual)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Counterfactual: Tsubame-3 without the health-test/proactive-replacement practices.")
	fmt.Println()
	fmt.Printf("%-28s %12s %16s\n", "", "actual", "counterfactual")
	actualMulti := multiPercent(actualStudy)
	cfMulti := multiPercent(cfStudy)
	fmt.Printf("%-28s %11.1f%% %15.1f%%\n", "multi-GPU failure share", actualMulti, cfMulti)
	fmt.Printf("%-28s %12d %16d\n", "4-GPU (whole-node) failures",
		involvementCount(actualStudy, 4), involvementCount(cfStudy, 4))

	// Blast radius for co-located single-GPU jobs (RQ3 implication).
	fmt.Println("\nExpected co-located jobs killed per GPU failure (4 jobs per node):")
	fmt.Printf("  actual:         %.2f\n", meanInvolvement(actualStudy))
	fmt.Printf("  counterfactual: %.2f\n", meanInvolvement(cfStudy))

	// Clustering of multi-GPU failures (Figure 8 view).
	if actualStudy.MultiGPU != nil && cfStudy.MultiGPU != nil {
		fmt.Println("\nMulti-GPU temporal clustering:")
		fmt.Printf("  actual:         %d events, clustering score %.2f\n",
			actualStudy.MultiGPU.MultiEvents, actualStudy.MultiGPU.ClusteringScore)
		fmt.Printf("  counterfactual: %d events, clustering score %.2f\n",
			cfStudy.MultiGPU.MultiEvents, cfStudy.MultiGPU.ClusteringScore)
	}

	fmt.Println("\nReading: the operational practices, not the NVLink-era hardware alone,")
	fmt.Println("are what keep a multi-GPU node from failing as a unit.")
}

func multiPercent(s *core.Study) float64 {
	var p float64
	for _, row := range s.Involvement {
		if row.GPUs >= 2 {
			p += row.Percent
		}
	}
	return p
}

func involvementCount(s *core.Study, gpus int) int {
	for _, row := range s.Involvement {
		if row.GPUs == gpus {
			return row.Count
		}
	}
	return 0
}

// meanInvolvement is the expected cards (and, on a fully co-located node,
// jobs) hit per GPU failure.
func meanInvolvement(s *core.Study) float64 {
	var total, events float64
	for _, row := range s.Involvement {
		total += float64(row.GPUs * row.Count)
		events += float64(row.Count)
	}
	if events == 0 {
		return 0
	}
	return total / events
}
