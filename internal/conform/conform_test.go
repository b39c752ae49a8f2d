package conform

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/failures"
	"repro/internal/synth"
)

// evaluateSystem runs the battery for a system over the default seed set.
func evaluateSystem(t *testing.T, sys failures.System) *Report {
	t.Helper()
	p, err := synth.ProfileFor(sys)
	if err != nil {
		t.Fatalf("ProfileFor: %v", err)
	}
	rep, err := Evaluate(context.Background(), p, Options{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return rep
}

func logReport(t *testing.T, rep *Report) {
	t.Helper()
	for _, c := range rep.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		stat, pval := "-", "-"
		if c.Stat != nil {
			stat = trimFloat(*c.Stat)
		}
		if c.P != nil {
			pval = trimFloat(*c.P)
		}
		t.Logf("%-28s %-6s %s stat=%s p=%s failed=%d/%d allowed=%d %s",
			c.Name, string(c.Kind), status, stat, pval, c.FailedSeeds, c.Seeds, c.AllowedFailures, c.Detail)
	}
	t.Logf("%s", rep.Summary())
}

func trimFloat(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestEvaluateNilProfile pins the API contract: a nil profile is an
// error, not a panic.
func TestEvaluateNilProfile(t *testing.T) {
	if _, err := Evaluate(context.Background(), nil, Options{}); err == nil {
		t.Fatal("Evaluate(nil) did not return an error")
	}
	spec, err := SpecFor(failures.Tsubame2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Evaluate(context.Background(), nil, Options{}); err == nil {
		t.Fatal("Spec.Evaluate(nil) did not return an error")
	}
}

// TestConformanceTsubame2 is the headline acceptance gate: the shipped
// Tsubame-2 calibration must pass every conformance check across the
// default 32-seed set.
func TestConformanceTsubame2(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance battery needs the full seed set")
	}
	rep := evaluateSystem(t, failures.Tsubame2)
	logReport(t, rep)
	if !rep.Pass {
		t.Fatalf("Tsubame-2 conformance failed: %s", rep.Summary())
	}
}

// TestConformanceTsubame3 is the Tsubame-3 acceptance gate.
func TestConformanceTsubame3(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance battery needs the full seed set")
	}
	rep := evaluateSystem(t, failures.Tsubame3)
	logReport(t, rep)
	if !rep.Pass {
		t.Fatalf("Tsubame-3 conformance failed: %s", rep.Summary())
	}
}
