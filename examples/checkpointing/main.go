// Checkpointing shows how the paper's MTBF findings drive application-
// level fault-tolerance tuning: the optimal checkpoint interval roughly
// doubles from Tsubame-2 (MTBF ~15 h) to Tsubame-3 (MTBF ~72 h), and a
// job tuned for the old machine wastes efficiency on the new one. The
// analytic Young/Daly model is validated against the trace-driven
// simulator, including Tsubame-3's non-exponential (Weibull) regime.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sched"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)

	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		log.Fatal(err)
	}
	s2, err := core.NewStudy(t2)
	if err != nil {
		log.Fatal(err)
	}
	s3, err := core.NewStudy(t3)
	if err != nil {
		log.Fatal(err)
	}

	const (
		ckptCost    = 0.1 // hours to write a checkpoint
		restartCost = 0.2 // hours to restart after a failure
	)
	m2 := sched.CheckpointModel{CheckpointCostHours: ckptCost, RestartCostHours: restartCost, MTBFHours: s2.TBF.MTBFHours}
	m3 := sched.CheckpointModel{CheckpointCostHours: ckptCost, RestartCostHours: restartCost, MTBFHours: s3.TBF.MTBFHours}

	fmt.Printf("Measured MTBF: Tsubame-2 %.1f h, Tsubame-3 %.1f h.\n", m2.MTBFHours, m3.MTBFHours)
	fmt.Printf("Young/Daly optimal intervals: %.2f h vs %.2f h.\n\n", m2.OptimalInterval(), m3.OptimalInterval())

	fmt.Println("Analytic efficiency sweep (fraction of wall-clock doing useful work):")
	fmt.Printf("%-14s %12s %12s\n", "interval (h)", "Tsubame-2", "Tsubame-3")
	for _, tau := range []float64{0.5, 1, m2.OptimalInterval(), 2, m3.OptimalInterval(), 6, 12} {
		e2, err := m2.Efficiency(tau)
		if err != nil {
			log.Fatal(err)
		}
		e3, err := m3.Efficiency(tau)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14.2f %12.4f %12.4f\n", tau, e2, e3)
	}

	// Validation against simulation, using each system's fitted TBF
	// shape: exponential on Tsubame-2, heavy-tailed Weibull on Tsubame-3.
	fail2, err := dist.NewExponential(m2.MTBFHours)
	if err != nil {
		log.Fatal(err)
	}
	fail3, err := dist.WeibullFromMean(0.74, m3.MTBFHours)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSimulated vs analytic at each system's optimum (500k simulated hours):")
	for _, row := range []struct {
		name string
		m    sched.CheckpointModel
		d    dist.Distribution
	}{
		{"Tsubame-2 (exponential)", m2, fail2},
		{"Tsubame-3 (Weibull k=0.74)", m3, fail3},
	} {
		tau := row.m.OptimalInterval()
		analytic, err := row.m.Efficiency(tau)
		if err != nil {
			log.Fatal(err)
		}
		simulated, err := sched.SimulatedEfficiency(row.m, tau, row.d, 500000, 42)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s tau=%.2f h: analytic %.4f, simulated %.4f\n", row.name, tau, analytic, simulated)
	}

	// The cross-generation mistake: running Tsubame-2's interval on
	// Tsubame-3.
	stale, err := m3.Efficiency(m2.OptimalInterval())
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := m3.Efficiency(m3.OptimalInterval())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nKeeping Tsubame-2's interval on Tsubame-3 costs %.2f%% efficiency (%.4f -> %.4f).\n",
		100*(tuned-stale), stale, tuned)
}
