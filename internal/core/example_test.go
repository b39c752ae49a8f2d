package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/synth"
)

// ExampleCompare shows the headline cross-generation numbers the paper
// reports: the MTBF improved >4x while the MTTR stood still.
func ExampleCompare() {
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := core.Compare(t2, t3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MTBF improvement: %.1fx\n", cmp.MTBFImprovement)
	fmt.Printf("MTTR ratio: %.1f\n", cmp.MTTRRatio)
	// Output:
	// MTBF improvement: 4.7x
	// MTTR ratio: 1.1
}

// ExampleNewStudy runs the RQ battery on one log and reads a single
// figure's data out of the study.
func ExampleNewStudy() {
	t2, err := synth.GenerateSystem(failures.Tsubame2, 42)
	if err != nil {
		log.Fatal(err)
	}
	study, err := core.NewStudy(t2)
	if err != nil {
		log.Fatal(err)
	}
	top := study.Breakdown[0]
	fmt.Printf("%s: %.2f%%\n", top.Category, top.Percent)
	// Output:
	// GPU: 44.37%
}
