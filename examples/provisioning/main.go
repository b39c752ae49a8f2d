// Provisioning explores the paper's RQ5 implication — "the longer
// recovery times highlight the need for appropriate spare provisioning of
// parts" — by simulating a year of Tsubame-2 operations under different
// spare-part policies and crew counts, using failure processes fitted
// from the analyzed log.
package main

import (
	"fmt"
	"log"

	"repro/internal/cost"
	"repro/internal/failures"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/spares"
	"repro/internal/synth"
	"repro/internal/system"
)

func main() {
	log.SetFlags(0)

	failureLog, err := synth.GenerateSystem(failures.Tsubame2, 42)
	if err != nil {
		log.Fatal(err)
	}
	procs, err := sim.ProcessesFromLog(failureLog, 10)
	if err != nil {
		log.Fatal(err)
	}
	machine, err := system.ForSystem(failures.Tsubame2)
	if err != nil {
		log.Fatal(err)
	}

	type scenario struct {
		name  string
		parts func() (sim.PartsPolicy, error)
	}
	scenarios := []scenario{
		{"unlimited on-site stock", func() (sim.PartsPolicy, error) { return spares.Unlimited{}, nil }},
		{"one spare, 72h lead", func() (sim.PartsPolicy, error) { return spares.NewFixedStock(1, 72) }},
		{"no spares, 72h lead", func() (sim.PartsPolicy, error) { return spares.NewFixedStock(0, 72) }},
		{"predictive (EWMA-staged)", func() (sim.PartsPolicy, error) {
			rate, err := predict.NewEWMARate(0.3)
			if err != nil {
				return nil, err
			}
			return spares.NewPredictive(rate, 72, 1.5)
		}},
	}

	fmt.Println("Spare-provisioning what-if: Tsubame-2 fitted processes, 8760 simulated hours, 8 crews.")
	fmt.Printf("%-28s %12s %14s %14s\n", "policy", "availability", "mean wait (h)", "restore (h)")
	for _, sc := range scenarios {
		parts, err := sc.parts()
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Nodes:        machine.Nodes,
			GPUsPerNode:  machine.Node.NumGPUs,
			HorizonHours: 8760,
			Processes:    procs,
			Crews:        8,
			Parts:        parts,
			Seed:         1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %12.4f %14.1f %14.1f\n", sc.name, res.Availability, res.MeanRepairWait, res.MeanTimeToRestore)
	}

	fmt.Println("\nCrew sizing under unlimited spares (queueing is the other MTTR lever):")
	fmt.Printf("%-8s %12s %14s %11s\n", "crews", "availability", "mean wait (h)", "peak queue")
	for _, crews := range []int{2, 4, 8, 16, 0} {
		res, err := sim.Run(sim.Config{
			Nodes:        machine.Nodes,
			GPUsPerNode:  machine.Node.NumGPUs,
			HorizonHours: 8760,
			Processes:    procs,
			Crews:        crews,
			Seed:         1,
		})
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%d", crews)
		if crews == 0 {
			label = "inf"
		}
		fmt.Printf("%-8s %12.4f %14.1f %11d\n", label, res.Availability, res.MeanRepairWait, res.PeakQueue)
	}

	// The paper's closing point: "maintaining balance is the key". Price
	// downtime against inventory holding and find the cost-optimal stock.
	points, optimal, err := cost.Sweep(cost.SweepConfig{
		Nodes:         machine.Nodes,
		GPUsPerNode:   machine.Node.NumGPUs,
		Processes:     procs,
		HorizonHours:  8760,
		Seed:          1,
		LeadTimeHours: 120,
		Stocks:        []int{0, 1, 2, 4, 8, 16, 32},
		Prices:        cost.Prices{DowntimePerNodeHour: 100, HoldingPerPartYear: 5000},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSpare-stock cost curve ($100/node-hour downtime, $5k/part-year holding):")
	fmt.Printf("%-8s %12s %14s %14s %14s\n", "stock", "availability", "downtime $", "holding $", "total $")
	for i, pt := range points {
		marker := " "
		if i == optimal {
			marker = "*"
		}
		fmt.Printf("%-7d%s %12.4f %14.0f %14.0f %14.0f\n",
			pt.Stock, marker, pt.Availability, pt.DowntimeCost, pt.HoldingCost, pt.Total)
	}
	fmt.Printf("Cost-optimal stock: %d parts per category.\n", points[optimal].Stock)
}
