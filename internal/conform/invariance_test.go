package conform

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/failures"
	"repro/internal/synth"
)

// TestAnonymizationPreservesConformance is the metamorphic guarantee that
// lets anonymized traces be shared without weakening the validation
// story: HMAC node remapping must leave every conformance statistic —
// including the node- and slot-level ones — byte-for-byte identical.
func TestAnonymizationPreservesConformance(t *testing.T) {
	for _, sys := range []failures.System{failures.Tsubame2, failures.Tsubame3} {
		p, err := synth.ProfileFor(sys)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := SpecFor(sys)
		if err != nil {
			t.Fatal(err)
		}
		seeds := DefaultSeeds(8)
		plain := make([]*failures.Log, len(seeds))
		anon := make([]*failures.Log, len(seeds))
		err = synth.GenerateEach(context.Background(), p, seeds, 0, func(i int, log *failures.Log) error {
			plain[i] = log
			a, err := failures.Anonymize(log, failures.AnonymizeOptions{Key: "conform-test"})
			if err != nil {
				return err
			}
			anon[i] = a
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		repPlain, err := evaluateLogs(spec, p, seeds, plain, Options{Seeds: seeds})
		if err != nil {
			t.Fatal(err)
		}
		repAnon, err := evaluateLogs(spec, p, seeds, anon, Options{Seeds: seeds})
		if err != nil {
			t.Fatal(err)
		}
		jp, _ := json.Marshal(repPlain.Checks)
		ja, _ := json.Marshal(repAnon.Checks)
		if string(jp) != string(ja) {
			for i := range repPlain.Checks {
				if !reflect.DeepEqual(repPlain.Checks[i], repAnon.Checks[i]) {
					t.Errorf("%v: check %s differs after anonymization", sys, repPlain.Checks[i].Name)
				}
			}
			t.Fatalf("%v: anonymization changed the conformance report", sys)
		}
	}
}

// TestEvaluateConcurrent exercises the battery under concurrent use: two
// goroutines evaluating the same profile through synth.GenerateEach worker
// pools must neither race (run under -race in CI) nor disagree.
func TestEvaluateConcurrent(t *testing.T) {
	p, err := synth.ProfileFor(failures.Tsubame2)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seeds: DefaultSeeds(8), Parallelism: 4}
	reports := make([]*Report, 2)
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := Evaluate(context.Background(), p, opts)
			if err != nil {
				t.Errorf("Evaluate: %v", err)
				return
			}
			reports[i] = rep
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	j0, _ := json.Marshal(reports[0])
	j1, _ := json.Marshal(reports[1])
	if string(j0) != string(j1) {
		t.Fatal("concurrent evaluations of the same profile disagree")
	}
}

// evaluateLogs runs the battery against pre-materialized logs (seeds[i]
// labels logs[i] in the report). Static checks still pin p against the
// anchored calibration; the statistical checks consume the given logs,
// which lets a test verify that a transformation (anonymization,
// serialization) preserved every conformance statistic.
func evaluateLogs(s *Spec, p *synth.Profile, seeds []int64, logs []*failures.Log, opts Options) (*Report, error) {
	if len(seeds) != len(logs) {
		return nil, fmt.Errorf("conform: %d seeds but %d logs", len(seeds), len(logs))
	}
	opts = opts.withDefaults()
	opts.Seeds = seeds
	return s.run(p, opts, func(each func(idx int, seed int64, log *failures.Log) error) error {
		for i, log := range logs {
			if err := each(i, seeds[i], log); err != nil {
				return err
			}
		}
		return nil
	})
}
