package synth_test

import (
	"fmt"
	"log"

	"repro/internal/synth"
)

// ExampleGenerateBoth demonstrates the one-call reproduction entry point:
// both generations' calibrated logs from a single seed.
func ExampleGenerateBoth() {
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(t2.Len(), "Tsubame-2 failures")
	fmt.Println(t3.Len(), "Tsubame-3 failures")
	// Output:
	// 897 Tsubame-2 failures
	// 338 Tsubame-3 failures
}
