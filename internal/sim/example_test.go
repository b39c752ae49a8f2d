package sim_test

import (
	"fmt"
	"log"

	"repro/internal/failures"
	"repro/internal/sim"
	"repro/internal/synth"
)

// ExampleRun drives the failure/repair simulator with processes fitted
// from an analyzed log — the paper's measurement-to-operations loop in
// three calls.
func ExampleRun() {
	t2, err := synth.GenerateSystem(failures.Tsubame2, 42)
	if err != nil {
		log.Fatal(err)
	}
	procs, err := sim.ProcessesFromLog(t2, 10)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Nodes:        1408,
		GPUsPerNode:  3,
		HorizonHours: 8760,
		Processes:    procs,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("availability above 99%%: %v\n", res.Availability > 0.99)
	// Output:
	// availability above 99%: true
}
