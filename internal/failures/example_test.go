package failures_test

import (
	"fmt"
	"log"

	"repro/internal/failures"
	"repro/internal/synth"
)

// ExampleAnonymize shows the business-sensitivity transform: node
// identities are pseudonymized under a key before a log leaves the site.
func ExampleAnonymize() {
	t2, err := synth.GenerateSystem(failures.Tsubame2, 42)
	if err != nil {
		log.Fatal(err)
	}
	anon, err := failures.Anonymize(t2, failures.AnonymizeOptions{Key: "site-secret"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(anon.Len() == t2.Len(), anon.At(0).Node[:1])
	// Output:
	// true x
}
