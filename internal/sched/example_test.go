package sched_test

import (
	"fmt"

	"repro/internal/sched"
)

// ExampleCheckpointModel ties the measured MTBF to application-level
// fault-tolerance tuning via the Young/Daly optimum.
func ExampleCheckpointModel() {
	m := sched.CheckpointModel{
		CheckpointCostHours: 0.1,
		RestartCostHours:    0.2,
		MTBFHours:           15.3, // Tsubame-2
	}
	fmt.Printf("optimal interval: %.2f h\n", m.OptimalInterval())
	// Output:
	// optimal interval: 1.65 h
}
